#ifndef LSS_BTREE_EVICTION_POLICY_H_
#define LSS_BTREE_EVICTION_POLICY_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "btree/page.h"

namespace lss {

/// Which replacement policy a BufferPool runs. Mirrors the cleaning-policy
/// seam (core/cleaning_policy.h): the pool owns the frames and the latch;
/// the policy owns the replacement decision. Under every policy a cache
/// hit and an unpin take no latch (see BufferPool).
enum class EvictionPolicyKind : uint8_t {
  /// Exact LRU, bit-for-bit the pre-seam pool at one thread: the pool
  /// queues each latch-free hit and unpin as an access event and replays
  /// them, in order, into a per-partition recency list under the latch
  /// before the next replacement decision.
  kExactLru = 0,
  /// CLOCK / second-chance: a hit is a relaxed store to the frame's
  /// reference bit — no event, no list. The clock hand sweeps for an
  /// unreferenced frame on miss/eviction.
  kClock = 1,
  /// 2Q: new pages enter a probationary FIFO (A1in) and are promoted to a
  /// protected LRU (Am) only on re-reference; a bounded ghost list (A1out)
  /// remembers recently evicted probationers so their return promotes
  /// directly. A one-pass scan churns through A1in without ever touching
  /// the hot set in Am. Fed by the same access events as exact LRU.
  kTwoQ = 2,
};

/// The per-frame state a policy may inspect during victim selection,
/// implemented by the pool's partition.
class FrameStateView {
 public:
  virtual ~FrameStateView() = default;

  /// Frames in this partition.
  virtual size_t frame_count() const = 0;

  /// True if the frame is currently pinned (or mid-write-back). A
  /// snapshot: latch-free pins race victim selection, and the pool
  /// re-validates every victim with a pin-word CAS anyway.
  virtual bool Pinned(size_t idx) const = 0;

  /// Returns the frame's reference bit and clears it (the second-chance
  /// step of a clock sweep).
  virtual bool TestClearRef(size_t idx) = 0;
};

/// Strategy interface for buffer-pool page replacement. One instance per
/// pool partition; every method runs under that partition's latch, so
/// implementations need no locking of their own.
///
/// Hits and unpins happen without the latch. For a policy that consumes
/// access events, the pool records each one in a per-partition FIFO and
/// replays the queue into OnHit / OnUnpin under the latch before any
/// other policy call, so at one thread the policy sees exactly the call
/// sequence a fully latched pool would make. Under concurrency an event
/// may arrive late or after a neighbouring thread's event; the pool drops
/// events whose frame has since been recycled for another page. Policies
/// therefore keep every resident frame in their structures and skip
/// pinned frames (FrameStateView::Pinned) when picking a victim, so no
/// event order can strand an unpinned frame outside them.
class EvictionPolicy {
 public:
  /// PickVictim result when every frame is pinned.
  static constexpr size_t kNoVictim = static_cast<size_t>(-1);

  virtual ~EvictionPolicy() = default;

  /// Policy name as selected by ParseEvictionPolicy ("lru", "clock", "2q").
  virtual std::string name() const = 0;

  /// False when OnHit and OnUnpin are no-ops, so the pool need not queue
  /// access events at all (CLOCK reads the frames' reference bits
  /// instead).
  virtual bool ConsumesAccessEvents() const { return true; }

  /// `page` was cached into frame `idx` (frame is pinned by the caller).
  virtual void OnInsert(size_t idx, PageNo page) = 0;

  /// A hit on the resident frame `idx` (it gained a pin).
  virtual void OnHit(size_t idx) = 0;

  /// Frame `idx`'s pin count dropped to zero (it became evictable).
  virtual void OnUnpin(size_t idx) = 0;

  /// Frame `idx`, holding `page`, was chosen for eviction and is leaving
  /// the cache.
  virtual void OnEvict(size_t idx, PageNo page) = 0;

  /// Chooses an unpinned frame, or kNoVictim when every frame is pinned.
  /// The choice is a candidate: the pool claims it with a pin-word CAS
  /// and calls PickVictim again if a latch-free pin got there first.
  virtual size_t PickVictim() = 0;
};

/// Builds a policy instance for one partition, whose frames `frames`
/// describes (the view must outlive the policy).
std::unique_ptr<EvictionPolicy> MakeEvictionPolicy(EvictionPolicyKind kind,
                                                   FrameStateView* frames);

/// "lru" | "clock" | "2q" (case-sensitive; the LSS_BENCH_POOL spellings).
/// Returns false and leaves *out alone on an unknown name.
bool ParseEvictionPolicy(const std::string& name, EvictionPolicyKind* out);

/// Inverse of ParseEvictionPolicy.
std::string EvictionPolicyName(EvictionPolicyKind kind);

}  // namespace lss

#endif  // LSS_BTREE_EVICTION_POLICY_H_
