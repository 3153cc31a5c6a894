// Test helper: lowers the process's file-size limit for one scope, so a
// test can make the kernel refuse part of a write (a short write, then
// EFBIG) without filling a disk.
#pragma once

#include <sys/resource.h>

#include <csignal>

namespace rebench {

/// Lowers this process's file-size limit (RLIMIT_FSIZE) for one scope,
/// with SIGXFSZ ignored so an oversized write fails with EFBIG instead
/// of killing the process; both are restored on scope exit.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(rlim_t bytes) {
    getrlimit(RLIMIT_FSIZE, &saved_);
    previous_ = std::signal(SIGXFSZ, SIG_IGN);
    rlimit lowered = saved_;
    lowered.rlim_cur = bytes;
    setrlimit(RLIMIT_FSIZE, &lowered);
  }
  ~FileSizeLimit() {
    setrlimit(RLIMIT_FSIZE, &saved_);
    std::signal(SIGXFSZ, previous_);
  }
  FileSizeLimit(const FileSizeLimit&) = delete;
  FileSizeLimit& operator=(const FileSizeLimit&) = delete;

 private:
  rlimit saved_{};
  void (*previous_)(int) = nullptr;
};

}  // namespace rebench
