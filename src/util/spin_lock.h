#ifndef LSS_UTIL_SPIN_LOCK_H_
#define LSS_UTIL_SPIN_LOCK_H_

#include <atomic>
#include <cstdint>
#include <thread>

namespace lss {

/// Test-and-test-and-set spinlock for short critical sections (a shard's
/// Write is well under a microsecond). Acquire is one exchange; waiters
/// spin on a plain load, so the line stays shared until the holder
/// releases it, with a CPU pause hint per probe. After kSpinsBeforeYield
/// probes a waiter yields its core on every further probe, so a holder
/// that was descheduled (more threads than cores) still gets to run.
/// Meets the Lockable requirements, so std::lock_guard and
/// std::unique_lock (including std::try_to_lock) work.
class SpinLock {
 public:
  static constexpr uint32_t kSpinsBeforeYield = 128;

  void lock() {
    while (locked_.exchange(true, std::memory_order_acquire)) {
      for (uint32_t spins = 0; locked_.load(std::memory_order_relaxed);) {
        if (++spins < kSpinsBeforeYield) {
          CpuRelax();
        } else {
          std::this_thread::yield();
        }
      }
    }
  }

  /// One acquire attempt, never waits.
  bool try_lock() { return !locked_.exchange(true, std::memory_order_acquire); }

  void unlock() { locked_.store(false, std::memory_order_release); }

 private:
  static void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
    asm volatile("yield");
#endif
  }

  std::atomic<bool> locked_{false};
};

}  // namespace lss

#endif  // LSS_UTIL_SPIN_LOCK_H_
