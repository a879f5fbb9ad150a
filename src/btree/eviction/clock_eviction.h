#ifndef LSS_BTREE_EVICTION_CLOCK_EVICTION_H_
#define LSS_BTREE_EVICTION_CLOCK_EVICTION_H_

#include "btree/eviction_policy.h"

namespace lss {

/// CLOCK / second-chance (the coremap idiom: a circular sweep over frames
/// with per-frame reference bits). The policy itself keeps one word of
/// state — the clock hand. Hits never reach it: the pool's latch-free hit
/// path sets the frame's atomic reference bit with a relaxed store, and
/// the sweep consumes those bits under the latch when a miss needs a
/// victim. Pinned frames are skipped; a referenced frame loses its bit
/// and survives one more revolution.
class ClockEvictionPolicy : public EvictionPolicy {
 public:
  explicit ClockEvictionPolicy(FrameStateView* view) : view_(view) {}

  std::string name() const override { return "clock"; }
  bool ConsumesAccessEvents() const override { return false; }

  // Hits and unpins only set reference bits; nothing to record here.
  void OnInsert(size_t idx, PageNo page) override;
  void OnHit(size_t) override {}
  void OnUnpin(size_t) override {}
  void OnEvict(size_t idx, PageNo page) override;
  size_t PickVictim() override;

 private:
  FrameStateView* view_;
  size_t hand_ = 0;
};

}  // namespace lss

#endif  // LSS_BTREE_EVICTION_CLOCK_EVICTION_H_
