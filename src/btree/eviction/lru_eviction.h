#ifndef LSS_BTREE_EVICTION_LRU_EVICTION_H_
#define LSS_BTREE_EVICTION_LRU_EVICTION_H_

#include "btree/eviction/frame_list.h"
#include "btree/eviction_policy.h"

namespace lss {

/// Exact LRU: one recency list per partition holding every resident
/// frame. A frame moves to the front when its pin count drops to zero;
/// the victim is the least recent unpinned frame. Among unpinned frames
/// the order is that of their last unpin, exactly the pre-seam pool's
/// list of unpinned frames, so at one thread the victims (and hence the
/// write-back sequence) match it bit for bit — the determinism test pins
/// this against an independent reference model.
class LruEvictionPolicy : public EvictionPolicy {
 public:
  explicit LruEvictionPolicy(FrameStateView* frames)
      : frames_(frames), lru_(frames->frame_count()) {}

  std::string name() const override { return "lru"; }
  void OnInsert(size_t idx, PageNo) override { lru_.PushFront(idx); }
  // Pinning needs no bookkeeping: victims skip pinned frames, and the
  // unpin that ends this access sets the frame's recency.
  void OnHit(size_t) override {}
  void OnUnpin(size_t idx) override { lru_.MoveToFront(idx); }
  void OnEvict(size_t idx, PageNo) override { lru_.Remove(idx); }
  size_t PickVictim() override { return lru_.LastUnpinned(*frames_); }

 private:
  FrameStateView* frames_;
  FrameList lru_;  // front = most recent
};

}  // namespace lss

#endif  // LSS_BTREE_EVICTION_LRU_EVICTION_H_
