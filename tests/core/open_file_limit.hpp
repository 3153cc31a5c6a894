// Test helper: uses up the process's file descriptors for one scope, so
// every open(2) fails with EMFILE, without touching any setting outside
// the process.
#pragma once

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <exception>
#include <vector>

namespace rebench {

/// Lowers this process's descriptor limit (RLIMIT_NOFILE) to `limit` and
/// holds every descriptor left under it open on /dev/null; both are
/// restored on scope exit.  Keep exceptions thrown in scope alive past it
/// (thrownBy): UBSan's vptr check of their virtual calls, the destructor
/// included, opens a pipe and reports a false "invalid vptr" when it
/// cannot.
class OpenFileLimit {
 public:
  explicit OpenFileLimit(rlim_t limit = 64) {
    getrlimit(RLIMIT_NOFILE, &saved_);
    rlimit lowered = saved_;
    lowered.rlim_cur = limit;
    setrlimit(RLIMIT_NOFILE, &lowered);
    held_.reserve(limit);
    for (int fd; (fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC)) >= 0;) {
      held_.push_back(fd);
    }
  }
  ~OpenFileLimit() {
    for (const int fd : held_) ::close(fd);
    setrlimit(RLIMIT_NOFILE, &saved_);
  }
  OpenFileLimit(const OpenFileLimit&) = delete;
  OpenFileLimit& operator=(const OpenFileLimit&) = delete;

 private:
  rlimit saved_{};
  std::vector<int> held_;
};

/// What `call` threw, or nullptr when it returned.
template <typename Call>
std::exception_ptr thrownBy(Call&& call) {
  try {
    call();
  } catch (...) {
    return std::current_exception();
  }
  return nullptr;
}

}  // namespace rebench
