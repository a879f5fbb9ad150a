#include "core/uring_backend.h"

#include <cerrno>
#include <cstring>
#include <string>

#if defined(__linux__) && defined(__has_include)
#if __has_include(<linux/io_uring.h>)
#define LSS_URING_SYSCALLS 1
#endif
#endif

#if defined(LSS_URING_SYSCALLS)
#include <linux/io_uring.h>
#include <sys/syscall.h>
#include <unistd.h>

// The io_uring syscall numbers are uniform across architectures (added
// to the unified table in 5.1); some older libcs ship syscall.h without
// them even when the kernel header exists.
#ifndef __NR_io_uring_setup
#define __NR_io_uring_setup 425
#endif
#ifndef __NR_io_uring_enter
#define __NR_io_uring_enter 426
#endif
#endif  // LSS_URING_SYSCALLS

namespace lss {

#if defined(LSS_URING_SYSCALLS)

namespace {

// io_uring_enter, retrying EINTR. Returns 0 or the failing errno.
int RawEnter(int fd, unsigned to_submit, unsigned min_complete,
             unsigned flags) {
  while (true) {
    const long r = syscall(__NR_io_uring_enter, fd, to_submit, min_complete,
                           flags, nullptr, 0);
    if (r >= 0) return 0;
    if (errno == EINTR) continue;
    return errno;
  }
}

}  // namespace

bool UringBackend::ProbeAvailable(std::string* reason) {
  struct io_uring_params params;
  std::memset(&params, 0, sizeof(params));
  const long fd = syscall(__NR_io_uring_setup, 4, &params);
  if (fd < 0) {
    if (reason != nullptr) {
      *reason = std::string("io_uring_setup: ") + std::strerror(errno);
    }
    return false;
  }
  // Exercise the second syscall too — seccomp filters often allow setup
  // (or return ENOSYS from enter only).
  const int err = RawEnter(static_cast<int>(fd), 0, 0, 0);
  ::close(static_cast<int>(fd));
  if (err != 0) {
    if (reason != nullptr) {
      *reason = std::string("io_uring_enter: ") + std::strerror(err);
    }
    return false;
  }
  if (reason != nullptr) reason->clear();
  return true;
}

#else  // !LSS_URING_SYSCALLS

bool UringBackend::ProbeAvailable(std::string* reason) {
  if (reason != nullptr) {
    *reason = "io_uring requires Linux with <linux/io_uring.h>";
  }
  return false;
}

#endif  // LSS_URING_SYSCALLS

}  // namespace lss
