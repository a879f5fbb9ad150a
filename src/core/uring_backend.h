#ifndef LSS_CORE_URING_BACKEND_H_
#define LSS_CORE_URING_BACKEND_H_

#include <string>

namespace lss {

/// The io_uring backend was deleted (docs/ARCHITECTURE.md, "io_uring: a
/// negative result"); only its capability probe is left, because
/// perfbench's HOST stamp reports it. It goes with the next change to
/// the benchmark.
class UringBackend {
 public:
  /// Builds (and immediately tears down) a tiny ring, exercising both
  /// io_uring syscalls. Returns false with a human-readable reason
  /// (ENOSYS, seccomp EPERM, ...) where io_uring cannot be used.
  static bool ProbeAvailable(std::string* reason);
};

}  // namespace lss

#endif  // LSS_CORE_URING_BACKEND_H_
