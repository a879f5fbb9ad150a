#include "btree/eviction/two_q_eviction.h"

#include <algorithm>

namespace lss {

TwoQEvictionPolicy::TwoQEvictionPolicy(FrameStateView* frames)
    : frames_(frames),
      a1_(frames->frame_count()),
      am_(frames->frame_count()),
      queue_(frames->frame_count(), Queue::kA1),
      a1_target_(std::max<size_t>(1, frames->frame_count() / 4)),
      ghost_limit_(std::max<size_t>(1, frames->frame_count() / 2)) {}

void TwoQEvictionPolicy::RememberGhost(PageNo page) {
  ghost_fifo_.push_front(page);
  ghosts_[page] = ghost_fifo_.begin();
  if (ghost_fifo_.size() > ghost_limit_) {
    ghosts_.erase(ghost_fifo_.back());
    ghost_fifo_.pop_back();
  }
}

void TwoQEvictionPolicy::OnInsert(size_t idx, PageNo page) {
  auto ghost = ghosts_.find(page);
  if (ghost != ghosts_.end()) {
    // A recently demoted probationer returned: that second reference is
    // what 2Q rewards with a protected slot.
    ghost_fifo_.erase(ghost->second);
    ghosts_.erase(ghost);
    queue_[idx] = Queue::kAm;
  } else {
    queue_[idx] = Queue::kA1;
    ++a1_resident_;
  }
  ListOf(idx).PushFront(idx);
}

void TwoQEvictionPolicy::OnHit(size_t idx) {
  if (queue_[idx] == Queue::kA1) {
    // Re-referenced while probationary: promote.
    a1_.Remove(idx);
    queue_[idx] = Queue::kAm;
    --a1_resident_;
    am_.PushFront(idx);
  }
}

void TwoQEvictionPolicy::OnUnpin(size_t idx) { ListOf(idx).MoveToFront(idx); }

void TwoQEvictionPolicy::OnEvict(size_t idx, PageNo page) {
  ListOf(idx).Remove(idx);
  if (queue_[idx] == Queue::kA1) {
    --a1_resident_;
    RememberGhost(page);
  }
}

size_t TwoQEvictionPolicy::PickVictim() {
  // Drain the probationary FIFO down to its target before touching the
  // protected set — this is the scan shield: flood pages queue up in A1
  // and are recycled from its tail.
  if (a1_resident_ > a1_target_) {
    const size_t idx = a1_.LastUnpinned(*frames_);
    if (idx != kNoVictim) return idx;
  }
  const size_t idx = am_.LastUnpinned(*frames_);
  if (idx != kNoVictim) return idx;
  return a1_.LastUnpinned(*frames_);
}

}  // namespace lss
