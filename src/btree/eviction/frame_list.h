#ifndef LSS_BTREE_EVICTION_FRAME_LIST_H_
#define LSS_BTREE_EVICTION_FRAME_LIST_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "btree/eviction_policy.h"

namespace lss {

/// A doubly linked recency list of frame indices, threaded through
/// per-frame prev/next arrays sized once at construction, so moving a
/// frame never allocates. Front = most recent.
class FrameList {
 public:
  explicit FrameList(size_t frames) : links_(frames) {}

  bool Contains(size_t idx) const { return links_[idx].linked; }

  void PushFront(size_t idx) {
    Link& l = links_[idx];
    assert(!l.linked);
    l.prev = kNil;
    l.next = head_;
    if (head_ != kNil) {
      links_[head_].prev = static_cast<uint32_t>(idx);
    } else {
      tail_ = static_cast<uint32_t>(idx);
    }
    head_ = static_cast<uint32_t>(idx);
    l.linked = true;
  }

  void Remove(size_t idx) {
    Link& l = links_[idx];
    assert(l.linked);
    (l.prev != kNil ? links_[l.prev].next : head_) = l.next;
    (l.next != kNil ? links_[l.next].prev : tail_) = l.prev;
    l.linked = false;
  }

  void MoveToFront(size_t idx) {
    if (Contains(idx)) Remove(idx);
    PushFront(idx);
  }

  /// The least recent frame `frames` reports unpinned, or
  /// EvictionPolicy::kNoVictim.
  size_t LastUnpinned(const FrameStateView& frames) const {
    for (uint32_t idx = tail_; idx != kNil; idx = links_[idx].prev) {
      if (!frames.Pinned(idx)) return idx;
    }
    return EvictionPolicy::kNoVictim;
  }

 private:
  static constexpr uint32_t kNil = UINT32_MAX;

  struct Link {
    uint32_t prev = kNil;
    uint32_t next = kNil;
    bool linked = false;
  };

  std::vector<Link> links_;
  uint32_t head_ = kNil;
  uint32_t tail_ = kNil;
};

}  // namespace lss

#endif  // LSS_BTREE_EVICTION_FRAME_LIST_H_
