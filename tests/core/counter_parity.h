#ifndef LSS_TESTS_CORE_COUNTER_PARITY_H_
#define LSS_TESTS_CORE_COUNTER_PARITY_H_

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/stats.h"

namespace lss {

/// Counters only a real backend moves: zero on the null backend.
inline const std::set<std::string>& DeviceCounters() {
  static const std::set<std::string> kNames = {
      "device_bytes_written",      // pwrite bytes
      "device_write_ops",          // pwrite calls
      "device_fsyncs",             // fsync calls
      "device_bytes_punched",      // hole punches
      "device_write_seconds",      // wall clock
      "device_fsync_seconds",      // wall clock
      "checkpoint_bytes_written",  // device bytes of checkpoints
  };
  return kNames;
}

/// Counters of the async seal pipeline's own work: zero in sync mode.
inline const std::set<std::string>& PipelineCounters() {
  static const std::set<std::string> kNames = {
      "seal_queue_enqueued",  // ops handed to the I/O thread
      "seal_queue_stalls",    // timing-dependent backpressure
      "group_fsyncs",         // one per drained batch
      "group_fsync_ops",      // ops per batch, timing-dependent
  };
  return kNames;
}

/// Expects every LSS_STORE_COUNTERS entry of `a` and `b` to be equal,
/// except those named in `exempt`. Walking the list means a counter
/// added to it is inside the parity check by default.
inline void ExpectSameCounters(const StoreStats& a, const StoreStats& b,
                               const std::set<std::string>& exempt,
                               const std::string& context = "") {
  // Test counters stay far below 2^53, so doubles hold them exactly.
  std::vector<double> expected;
  a.ForEach([&](const char*, auto value) {
    expected.push_back(static_cast<double>(value));
  });
  size_t i = 0;
  b.ForEach([&](const char* name, auto value) {
    const double want = expected[i++];
    if (exempt.count(name) == 0) {
      EXPECT_EQ(want, static_cast<double>(value)) << name << " " << context;
    }
  });
}

}  // namespace lss

#endif  // LSS_TESTS_CORE_COUNTER_PARITY_H_
