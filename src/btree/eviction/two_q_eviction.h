#ifndef LSS_BTREE_EVICTION_TWO_Q_EVICTION_H_
#define LSS_BTREE_EVICTION_TWO_Q_EVICTION_H_

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "btree/eviction/frame_list.h"
#include "btree/eviction_policy.h"

namespace lss {

/// 2Q (Johnson & Shasha, VLDB 1994), the scan-resistant replacement
/// exact LRU cannot match: a one-pass sequential flood promotes every
/// page it touches straight past an LRU hot set, while under 2Q scan
/// pages enter a probationary FIFO (A1in) and fall out of it without
/// ever displacing the protected LRU (Am) — only a page re-referenced
/// while probationary (or remembered by the A1out ghost list of recently
/// demoted probationers) earns an Am slot.
///
/// Sizing follows the paper's tunings on the partition's frame count:
/// A1in targets 25% of frames, A1out remembers 50% of frames' worth of
/// evicted page numbers (ghosts hold no data).
class TwoQEvictionPolicy : public EvictionPolicy {
 public:
  explicit TwoQEvictionPolicy(FrameStateView* frames);

  std::string name() const override { return "2q"; }
  void OnInsert(size_t idx, PageNo page) override;
  void OnHit(size_t idx) override;
  void OnUnpin(size_t idx) override;
  void OnEvict(size_t idx, PageNo page) override;
  size_t PickVictim() override;

 private:
  enum class Queue : uint8_t { kA1 = 0, kAm = 1 };

  FrameList& ListOf(size_t idx) {
    return queue_[idx] == Queue::kA1 ? a1_ : am_;
  }
  void RememberGhost(PageNo page);

  FrameStateView* frames_;
  // Resident frames, split across the two queues (front = most recent);
  // pinned frames stay listed and are skipped by PickVictim.
  FrameList a1_;  // probationary FIFO
  FrameList am_;  // protected LRU
  std::vector<Queue> queue_;  // which queue the frame belongs to
  size_t a1_resident_ = 0;    // A1 frames, pinned or not

  // Ghosts: page numbers recently evicted from A1, FIFO-bounded.
  std::list<PageNo> ghost_fifo_;  // front = most recent
  std::unordered_map<PageNo, std::list<PageNo>::iterator> ghosts_;

  size_t a1_target_;    // evict from A1 while it holds more than this
  size_t ghost_limit_;  // max remembered ghosts
};

}  // namespace lss

#endif  // LSS_BTREE_EVICTION_TWO_Q_EVICTION_H_
