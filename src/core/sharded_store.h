#ifndef LSS_CORE_SHARDED_STORE_H_
#define LSS_CORE_SHARDED_STORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/cleaning_policy.h"
#include "core/config.h"
#include "core/io_backend.h"
#include "core/page_table.h"
#include "core/stats.h"
#include "core/store_shard.h"
#include "core/types.h"
#include "util/spin_lock.h"

namespace lss {

/// Builds one CleaningPolicy instance; called once per shard so policy
/// state is never shared between threads (MakePolicy(variant) wrapped in
/// a lambda is the usual factory).
using PolicyFactory = std::function<std::unique_ptr<CleaningPolicy>()>;

/// Builds one SegmentBackend instance for the given shard id. Optional:
/// the default builds whatever `config.backend` selects. Tests inject
/// FaultInjectionBackend through this.
using BackendFactory =
    std::function<std::unique_ptr<SegmentBackend>(uint32_t shard_id)>;

/// A concurrent log-structured store: N independent StoreShards behind a
/// hash router, scaling the paper's single-threaded simulator (§6.1.1)
/// across cores.
///
/// Partitioning. Pages route to shards by PageShard (a splitmix64 hash of
/// the page id), and the device is split evenly: each shard owns
/// num_segments / num_shards segments, its own free pool, write buffer,
/// update clock, stats and cleaning-policy instance. Cleaning is per
/// shard — a shard's cleaner only ever selects victims among its own
/// segments, so shards never contend on a victim or a free list.
///
/// Locking. One SpinLock per shard (test-and-test-and-set, yielding
/// after a bounded spin) serialises all operations routed to it. Most
/// shard Writes are far shorter than a futex sleep/wake, but the one
/// that fills the write buffer flushes it and runs the cleaning it
/// triggers, about 2 ms on the default geometry. So Write never waits
/// for another client's operation: each shard has a bounded FIFO inbox
/// of deferred writes, and a Write that finds the lock taken pushes
/// itself there and returns (flat combining: whoever takes the lock
/// next applies what others queued). Every locked entry point, Write's
/// own included, first drains the inbox in FIFO order, so a deferred write
/// is visible to every later observation through this API, and
/// per-thread program order is kept. Only Write is deferred; a full
/// inbox or a failed shard makes Write wait for the lock instead.
/// Cross-shard state is limited to the shared PageTable, whose lookups
/// are lock-free and whose growth is a CAS, and read-side aggregation.
///
/// Stats are aggregated on read: AggregatedStats() locks each shard in
/// turn and merges its counters, so WriteAmplification() over the result
/// is the global Wamp while shard(i).stats() exposes the per-shard view
/// (bench/scale_threads.cc reports the spread).
///
/// A 1-shard ShardedStore executes the exact instruction sequence of a
/// LogStructuredStore (same StoreShard code, same routing), which the
/// determinism test pins down bit-for-bit.
class ShardedStore {
 public:
  /// Creates a store with `num_shards` shards, giving each shard
  /// num_segments / num_shards segments, its own policy from
  /// `policy_factory` and its own persistence backend (from
  /// `backend_factory`, or `config.backend` when none is given — the
  /// file backend then writes one file pair per shard under
  /// `config.backend_dir`). Fails (nullptr, `*status` set) when the
  /// per-shard geometry does not validate — the device must be large
  /// enough that every shard still has a workable segment pool.
  static std::unique_ptr<ShardedStore> Create(
      const StoreConfig& config, uint32_t num_shards,
      const PolicyFactory& policy_factory, Status* status = nullptr,
      const BackendFactory& backend_factory = nullptr);

  /// Reopens a sharded store from the durable state a previous run left
  /// in `config.backend_dir` (file backend only). `num_shards` and the
  /// geometry must match the creating run: each shard recovers from its
  /// own file pair, and a shard-count mismatch is detected when a
  /// recovered segment holds pages the shard does not own.
  static std::unique_ptr<ShardedStore> Open(
      const StoreConfig& config, uint32_t num_shards,
      const PolicyFactory& policy_factory, Status* status = nullptr);

  /// Closes every shard (flush, seal, backend close); first error wins.
  /// Also runs at destruction, where the result is ignored.
  Status Close();

  ~ShardedStore() { Close(); }

  ShardedStore(const ShardedStore&) = delete;
  ShardedStore& operator=(const ShardedStore&) = delete;

  /// Installs the exact-frequency oracle on every shard. Must be set
  /// before the first Write; the oracle is called concurrently from all
  /// shard threads and must be thread-safe (pure functions of the page id
  /// are — all workload generators qualify).
  void SetExactFrequencyOracle(const ExactFrequencyFn& oracle);

  /// Routes to the owning shard and writes under its lock, or, when
  /// another thread holds that lock, defers the write to the shard's
  /// inbox. A deferred Write checks up front what the shard could reject
  /// for this call alone (page size, addressable id) and returns OK once
  /// the write is accepted into the shard's FIFO; the next operation on
  /// the shard applies it. A shard failure hit while
  /// applying it (a sticky error such as a failed seal) is returned by
  /// the next operation on that shard, like the async seal pipeline's
  /// late errors, and from then on every Write to the shard waits for
  /// the lock and returns its own status.
  Status Write(PageId page, uint32_t bytes = 0);

  /// Routes to the owning shard and deletes under its lock.
  Status Delete(PageId page);

  /// Drains every shard's write buffer.
  Status Flush();

  /// Durable barrier across all shards: flushes buffers, checkpoints
  /// open segments and drains every shard's seal pipeline. On return
  /// every previously acknowledged write survives a crash. First error
  /// wins, but every shard is attempted.
  Status Checkpoint();

  /// Routes to the owning shard and reads the page's payload under its
  /// lock (see StoreShard::ReadPage; in async-seal mode this waits for
  /// the covering seal to reach the device).
  Status ReadPage(PageId page, std::vector<uint8_t>* out) const;

  /// True if `page` currently has a live version (buffered or stored).
  bool Contains(PageId page) const;

  /// Size in bytes of the current version of `page` (0 if absent).
  uint32_t PageSize(PageId page) const;

  // --- Introspection --------------------------------------------------

  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }

  /// The shard `page` routes to.
  uint32_t ShardOf(PageId page) const {
    return PageShard(page, num_shards());
  }

  /// Direct shard access. Applies the shard's deferred writes first, but
  /// the returned reference is not synchronised: use it only while no
  /// other thread is operating on the store (tests and post-run
  /// inspection), or take the shard lock via WithShardLocked.
  StoreShard& shard(uint32_t i) {
    { LockedShard drained(*shards_[i]); }
    return *shards_[i]->shard;
  }
  const StoreShard& shard(uint32_t i) const {
    { LockedShard drained(*shards_[i]); }
    return *shards_[i]->shard;
  }

  /// Runs `fn(shard)` under shard `i`'s lock, after its deferred writes.
  template <typename Fn>
  auto WithShardLocked(uint32_t i, Fn fn) const {
    LockedShard locked(*shards_[i]);
    return fn(*locked);
  }

  /// The geometry each shard runs with (num_segments already divided).
  const StoreConfig& shard_config() const { return shard_config_; }

  const PageTable& page_table() const { return table_; }

  /// Counters merged across shards (locks each shard briefly).
  StoreStats AggregatedStats() const;

  /// Zeroes every shard's counters (paper §6.2 warm-up protocol).
  void ResetMeasurement();

  /// Measured write amplification of each shard, indexed by shard id.
  std::vector<double> PerShardWriteAmplification() const;

  /// Aggregate live bytes / aggregate device bytes.
  double CurrentFillFactor() const;

  /// Live (present) pages across all shards. O(num_shards * P), each
  /// shard counted under its lock so the call is safe concurrently with
  /// writers (each shard's pages only mutate under that same lock).
  size_t LivePageCount() const;

  /// Runs StoreShard::CheckInvariants on every shard under its lock;
  /// returns the first inconsistency found.
  Status CheckInvariants() const;

 private:
  // A bounded multi-producer FIFO of deferred writes: Vyukov's bounded
  // queue, where each cell's sequence number says whether the cell is
  // free for the producer at position `pos` (seq == pos) or holds that
  // producer's write for the consumer (seq == pos + 1). Any thread may
  // push; only the shard's lock holder pops, so the consumer position is
  // a plain field guarded by the lock.
  class WriteInbox {
   public:
    // Covers one ~2 ms buffer flush at three other clients' arrival rate.
    static constexpr uint32_t kCapacity = 4096;

    WriteInbox();

    // False when the inbox is full.
    bool TryPush(PageId page, uint32_t bytes);

    // Lock holder only: whether anything was pushed since the last
    // Drain. One relaxed load; a write its own thread pushed is always
    // seen.
    bool Pending() const {
      return tail_.load(std::memory_order_relaxed) != head_;
    }

    // Lock holder only: passes every write pushed before the call to
    // `apply(page, bytes)`, oldest first.
    template <typename Fn>
    void Drain(Fn apply);

   private:
    struct Cell {
      std::atomic<uint64_t> seq;
      PageId page;
      uint32_t bytes;
    };
    static_assert((kCapacity & (kCapacity - 1)) == 0, "power of two");

    std::atomic<uint64_t> tail_{0};  // next position to claim
    uint64_t head_ = 0;              // next position to pop
    Cell cells_[kCapacity];
  };

  // Each shard starts on its own cache line so neighbouring locks do not
  // false-share under contention. The lock, the failure flag, the shard
  // pointer and the inbox positions share that first line, so an
  // uncontended Write on a cold shard fetches one line, not two.
  struct alignas(64) Shard {
    SpinLock mu;
    // Set under `mu` once the shard failed with a sticky error or was
    // closed; Write then stops deferring so callers see the error.
    std::atomic<bool> poisoned{false};
    std::unique_ptr<StoreShard> shard;
    WriteInbox inbox;
  };

  // Holds a shard's lock with its inbox drained. Every entry point locks
  // through this, so a deferred write is applied before anything else
  // observes or changes the shard, and unlock stays a plain release.
  class LockedShard {
   public:
    explicit LockedShard(Shard& s) : s_(s), lock_(s.mu) {
      if (s_.inbox.Pending()) DrainInbox(s_);
    }
    LockedShard(Shard& s, std::adopt_lock_t)
        : s_(s), lock_(s.mu, std::adopt_lock) {
      if (s_.inbox.Pending()) DrainInbox(s_);
    }
    StoreShard* operator->() const { return s_.shard.get(); }
    StoreShard& operator*() const { return *s_.shard; }

   private:
    Shard& s_;
    std::unique_lock<SpinLock> lock_;
  };

  ShardedStore() = default;

  // Applies shard `s`'s deferred writes. Requires `s.mu` held.
  static void DrainInbox(Shard& s);

  // Marks `s` failed when `st` is an error (see Shard::poisoned).
  static void NoteFailure(Shard& s, const Status& st) {
    if (!st.ok()) s.poisoned.store(true, std::memory_order_relaxed);
  }

  // Write's two halves: applying it with `s.mu` held (adopted and
  // released here), and the path taken when the lock was busy.
  Status WriteLocked(Shard& s, PageId page, uint32_t bytes);
  Status WriteContended(Shard& s, PageId page, uint32_t bytes);

  // What StoreShard::Write rejects for this call alone, independent of
  // shard state; checked before a write is deferred.
  Status CheckWriteArgs(PageId page, uint32_t bytes) const;

  // Shared construction for Create (fresh device) and Open (recovery).
  static std::unique_ptr<ShardedStore> Build(
      const StoreConfig& config, uint32_t num_shards,
      const PolicyFactory& policy_factory,
      const BackendFactory& backend_factory, bool recover, Status* status);

  PageTable table_;
  StoreConfig shard_config_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace lss

#endif  // LSS_CORE_SHARDED_STORE_H_
