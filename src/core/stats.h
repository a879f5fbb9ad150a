#ifndef LSS_CORE_STATS_H_
#define LSS_CORE_STATS_H_

#include <cstdint>

#include "util/histogram.h"

/// Every scalar counter of StoreStats, declared once:
/// X(type, name, doc). The list generates the data members (in this
/// order, zero-initialised), Merge, ResetMeasurement and ForEach, so
/// adding a counter is one entry here; the store increments the member
/// and every bench emitter that walks ForEach picks it up by name.
/// Not listed: the clean-time emptiness histogram, which StoreStats
/// spells by hand.
#define LSS_STORE_COUNTERS(X)                                                \
  /* --- Cleaning (the paper's measurements) --------------------------- */  \
  X(uint64_t, user_updates, "Logical user updates submitted via Write().")   \
  X(uint64_t, user_pages_written,                                            \
    "Physical page writes of user data into segments. Lags user_updates "    \
    "while writes wait in the write buffer; a page deleted while buffered "  \
    "is never written.")                                                     \
  X(uint64_t, gc_pages_written,                                              \
    "Still-live pages moved by the cleaner (the paper's 'page moves', "      \
    "§1.2 — the numerator of Wamp).")                                        \
  X(uint64_t, user_segments_sealed,                                          \
    "Segments filled with user data and sealed.")                            \
  X(uint64_t, gc_segments_sealed,                                            \
    "Segments filled with GC'd pages and sealed.")                           \
  X(uint64_t, segments_cleaned, "Victim segments reclaimed.")                \
  X(uint64_t, cleanings, "Cleaning cycles executed.")                        \
  X(uint64_t, deletes, "Deletes (trims) applied.")                           \
  /* --- Logical byte volume (denominators for device ratios) ---------- */  \
  X(uint64_t, user_bytes_written,                                            \
    "Payload bytes of user page versions placed into segments.")             \
  X(uint64_t, gc_bytes_written,                                              \
    "Payload bytes of GC-moved page versions placed into segments.")         \
  /* --- Device counters (filled by a real SegmentBackend; all zero on       \
     --- the null backend) --------------------------------------------- */  \
  X(uint64_t, device_bytes_written,                                          \
    "Bytes handed to pwrite (segment payloads plus metadata records).")      \
  X(uint64_t, device_write_ops, "pwrite calls issued.")                      \
  X(uint64_t, device_fsyncs, "fsync/fdatasync calls issued.")                \
  X(uint64_t, device_bytes_punched,                                          \
    "Payload bytes released back to the filesystem via hole punching.")      \
  X(double, device_write_seconds, "Wall-clock seconds spent inside pwrite.") \
  X(double, device_fsync_seconds, "Wall-clock seconds spent inside fsync.")  \
  /* --- Async seal pipeline (all zero in synchronous mode; see              \
     --- core/seal_pipeline.h) ----------------------------------------- */  \
  X(uint64_t, seal_queue_enqueued,                                           \
    "Operations (seals, reclaims, deletes, checkpoints) handed to the "      \
    "per-shard I/O thread.")                                                 \
  X(uint64_t, seal_queue_stalls,                                             \
    "Times a writer blocked because the seal queue was full (backpressure "  \
    "events, not wall-clock).")                                              \
  X(uint64_t, group_fsyncs,                                                  \
    "Group-commit fsync rounds issued by the I/O thread.")                   \
  X(uint64_t, group_fsync_ops,                                               \
    "Operations covered by those rounds; group_fsync_ops / group_fsyncs "    \
    "is the achieved commit-batch size.")                                    \
  X(uint64_t, checkpoints_written,                                           \
    "Open-segment checkpoint records persisted (async or periodic).")        \
  X(uint64_t, checkpoint_rounds,                                             \
    "Checkpoint rounds executed (each CheckpointOpenSegments pass over "     \
    "the open segments, whether it emitted records or skipped them all "     \
    "because the delta chains already covered every entry).")                \
  X(uint64_t, checkpoint_full_records,                                       \
    "Full checkpoint records: each re-persists the whole slot payload.")     \
  X(uint64_t, checkpoint_delta_records,                                      \
    "Delta checkpoint records: each persists only the suffix appended "      \
    "since the durable watermark (StoreConfig::checkpoint_delta).")          \
  X(uint64_t, checkpoint_bytes_written,                                      \
    "Device bytes spent on checkpointing: payload ranges rewritten plus "    \
    "the checkpoint metadata records (file backend only; a subset of "       \
    "device_bytes_written).")                                                \
  X(uint64_t, withheld_slot_reuses_rehomed,                                  \
    "Times AllocateSegment reused a slot whose free record is still "        \
    "withheld after first re-homing the victim's still-needed entries "      \
    "under a durable re-homing record (reachable only when a policy keeps "  \
    "more GC destinations open than there are spare free slots — "           \
    "multi-log at tiny free pools). The torture harness's multi-log "        \
    "geometry asserts this fires; each such reuse is crash-safe.")           \
  X(uint64_t, withheld_slot_reuses_plain,                                    \
    "Times AllocateSegment reused a withheld slot whose victim had no "      \
    "still-needed entries (all superseded by already-emitted records), so "  \
    "no re-homing record was required. Plain reuse of a slot that still "    \
    "holds needed entries is impossible by construction.")                   \
  X(uint64_t, rehome_entries_written,                                        \
    "Victim entries persisted into re-homing records before slot reuse.")    \
  X(uint64_t, rehome_entries_recovered,                                      \
    "Re-homed entries materialised into fresh segments during Recover.")

namespace lss {

/// Counters accumulated by a StoreShard (ShardedStore::AggregatedStats
/// merges them across shards). The headline metric is
/// write amplification Wamp = (GC page moves) / (user page writes), the
/// paper's Equation 2 measured empirically. ResetMeasurement() zeroes the
/// counters without disturbing store state, so benches can warm up to
/// steady state and then measure (paper §6.2 writes 100x the store size so
/// "the write amplification stabilized").
class StoreStats {
 public:
  StoreStats() : clean_emptiness_(0.0, 1.0, 100) {}

#define LSS_STORE_STATS_DECLARE(type, name, doc) type name = 0;
  LSS_STORE_COUNTERS(LSS_STORE_STATS_DECLARE)
#undef LSS_STORE_STATS_DECLARE

  /// Calls fn(name, value) for every LSS_STORE_COUNTERS entry, in list
  /// order. `value` is a uint64_t or double reference, mutable when this
  /// StoreStats is.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    Visit(*this, fn);
  }
  template <typename Fn>
  void ForEach(Fn&& fn) {
    Visit(*this, fn);
  }

  /// Total withheld-slot reuses (re-homed + plain).
  uint64_t WithheldSlotReuses() const {
    return withheld_slot_reuses_rehomed + withheld_slot_reuses_plain;
  }

  /// Write amplification (Equation 2), measured: moved pages per physical
  /// user page write.
  double WriteAmplification() const {
    if (user_pages_written == 0) return 0.0;
    return static_cast<double>(gc_pages_written) /
           static_cast<double>(user_pages_written);
  }

  /// Mean segment emptiness E observed at clean time (the paper's E in
  /// Table 1; Cost = 2/E, Equation 1).
  double MeanCleanEmptiness() const { return clean_emptiness_.mean(); }

  /// Full distribution of emptiness at clean time.
  const Histogram& clean_emptiness() const { return clean_emptiness_; }
  Histogram& mutable_clean_emptiness() { return clean_emptiness_; }

  /// Measured device traffic per logical user byte: how many bytes the
  /// backend physically wrote (payload, unfilled segment tails, GC
  /// re-writes, metadata) for each byte the user submitted. The device
  /// analogue of the simulator's 1 + Wamp prediction; 0 without a real
  /// backend.
  double DeviceBytesPerUserByte() const {
    if (user_bytes_written == 0) return 0.0;
    return static_cast<double>(device_bytes_written) /
           static_cast<double>(user_bytes_written);
  }

  /// Wall-clock seconds the thread driving the backend (the seal
  /// pipeline's I/O thread in async mode, the writer itself in sync
  /// mode) spent blocked on device work: writes + fsyncs.
  double DeviceSeconds() const {
    return device_write_seconds + device_fsync_seconds;
  }

  /// Accumulates another store's counters into this one (ShardedStore
  /// merges per-shard stats on read). Both histograms must share the
  /// default geometry, which every StoreStats does.
  void Merge(const StoreStats& other) {
#define LSS_STORE_STATS_MERGE(type, name, doc) name += other.name;
    LSS_STORE_COUNTERS(LSS_STORE_STATS_MERGE)
#undef LSS_STORE_STATS_MERGE
    clean_emptiness_.Merge(other.clean_emptiness_);
  }

  /// Zeroes all counters; store state is untouched.
  void ResetMeasurement() {
    ForEach([](const char*, auto& value) { value = 0; });
    clean_emptiness_.Reset();
  }

 private:
  template <typename Self, typename Fn>
  static void Visit(Self& self, Fn& fn) {
#define LSS_STORE_STATS_VISIT(type, name, doc) fn(#name, self.name);
    LSS_STORE_COUNTERS(LSS_STORE_STATS_VISIT)
#undef LSS_STORE_STATS_VISIT
  }

  Histogram clean_emptiness_;
};

}  // namespace lss

#endif  // LSS_CORE_STATS_H_
