#ifndef LSS_UTIL_MPSC_QUEUE_H_
#define LSS_UTIL_MPSC_QUEUE_H_

#include <atomic>
#include <cstdint>
#include <thread>

namespace lss {

/// A bounded multi-producer, single-consumer FIFO: Vyukov's bounded
/// queue, where each cell's sequence number says whether the cell is free
/// for the producer at position `pos` (seq == pos) or holds that
/// producer's value for the consumer (seq == pos + 1). Any thread may
/// push; only one thread at a time may pop (the owner of some external
/// lock), so the consumer position is a plain field guarded by that lock.
/// The cells live inline, so the queue never allocates.
template <typename T, uint32_t kCapacity>
class BoundedMpscQueue {
 public:
  static_assert(kCapacity > 0 && (kCapacity & (kCapacity - 1)) == 0,
                "capacity must be a power of two");

  BoundedMpscQueue() {
    for (uint32_t i = 0; i < kCapacity; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  BoundedMpscQueue(const BoundedMpscQueue&) = delete;
  BoundedMpscQueue& operator=(const BoundedMpscQueue&) = delete;

  /// False when the queue is full.
  bool TryPush(const T& value) {
    uint64_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & (kCapacity - 1)];
      const uint64_t seq = cell.seq.load(std::memory_order_acquire);
      const int64_t lag = static_cast<int64_t>(seq - pos);
      if (lag == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          cell.value = value;
          cell.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
      } else if (lag < 0) {
        return false;  // the cell still holds the value pushed a lap ago
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Consumer only: whether anything was pushed since the last Drain.
  /// One relaxed load; a value the consumer's own thread pushed is
  /// always seen.
  bool Pending() const {
    return tail_.load(std::memory_order_relaxed) != head_;
  }

  /// Consumer only: passes every value pushed before the call to
  /// `apply(value)`, oldest first. Values pushed meanwhile are left to
  /// the next Drain, which bounds the work one call does.
  template <typename Fn>
  void Drain(Fn apply) {
    const uint64_t end = tail_.load(std::memory_order_relaxed);
    for (; head_ != end; ++head_) {
      Cell& cell = cells_[head_ & (kCapacity - 1)];
      // A producer that claimed this position may not have filled it
      // yet; it is a few stores away from doing so.
      while (cell.seq.load(std::memory_order_acquire) != head_ + 1) {
        std::this_thread::yield();
      }
      const T value = cell.value;
      cell.seq.store(head_ + kCapacity, std::memory_order_release);
      apply(value);
    }
  }

 private:
  struct Cell {
    std::atomic<uint64_t> seq;
    T value;
  };

  std::atomic<uint64_t> tail_{0};  // next position to claim
  uint64_t head_ = 0;              // next position to pop
  Cell cells_[kCapacity];
};

}  // namespace lss

#endif  // LSS_UTIL_MPSC_QUEUE_H_
