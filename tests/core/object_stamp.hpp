// Test helpers for stat-stamped object reads (store::ObjectStamp): wait
// until a file's stamp can be trusted, tell whether it is still racy,
// and rewrite a file in place so only its times record the change.
#pragma once

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <chrono>
#include <cstdint>
#include <ctime>
#include <fstream>
#include <string>
#include <thread>

namespace rebench {

inline std::int64_t nanoseconds(const timespec& time) {
  return static_cast<std::int64_t>(time.tv_sec) * 1'000'000'000 +
         time.tv_nsec;
}

/// Sleeps until CLOCK_REALTIME_COARSE is a full tick past `path`'s ctime:
/// a verification from then on trusts the file's stamp (not racy).
inline void waitUntilTrustable(const std::string& path) {
  timespec tick{};
  ::clock_getres(CLOCK_REALTIME_COARSE, &tick);
  struct stat info {};
  ASSERT_EQ(::stat(path.c_str(), &info), 0) << path;
  while (true) {
    timespec now{};
    ::clock_gettime(CLOCK_REALTIME_COARSE, &now);
    if (nanoseconds(now) - nanoseconds(tick) >= nanoseconds(info.st_ctim)) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// Whether `path`'s ctime is still within a tick of CLOCK_REALTIME_COARSE:
/// a verification that read the clock earlier must have found it racy.
inline bool withinATick(const std::string& path) {
  timespec tick{};
  ::clock_getres(CLOCK_REALTIME_COARSE, &tick);
  struct stat info {};
  timespec now{};
  ::clock_gettime(CLOCK_REALTIME_COARSE, &now);
  return ::stat(path.c_str(), &info) == 0 &&
         nanoseconds(info.st_ctim) + nanoseconds(tick) > nanoseconds(now);
}

/// Overwrites one byte of `path` in place: same size, same inode.
inline void rewriteInPlace(const std::string& path) {
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.is_open()) << path;
  file.seekg(0, std::ios::end);
  const std::streamoff middle = file.tellg() / 2;
  file.seekg(middle);
  char byte = 0;
  file.get(byte);
  file.seekp(middle);
  file.put(byte == 'x' ? 'y' : 'x');
}

}  // namespace rebench
