#include "sysprobe.hpp"

#include <fcntl.h>
#include <malloc.h>
#include <sys/statfs.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "core/util/error.hpp"

#ifndef REBENCH_E2E_COMPILER
#define REBENCH_E2E_COMPILER "unknown"
#endif
#ifndef REBENCH_E2E_BUILD_TYPE
#define REBENCH_E2E_BUILD_TYPE "unknown"
#endif

namespace rebench::e2e {

namespace fs = std::filesystem;

IoCounters readIo() {
  std::ifstream in("/proc/self/io");
  IoCounters counters;
  std::string key;
  std::uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "rchar:") counters.rchar = value;
    if (key == "wchar:") counters.wchar = value;
    if (key == "syscw:") counters.syscw = value;
  }
  return counters;
}

namespace {

/// The numeric field `key` ("VmHWM:", "Threads:") of /proc/self/status.
double statusField(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) return std::stod(line.substr(key.size()));
  }
  throw Error(key + " missing from /proc/self/status");
}

}  // namespace

void resetPeakRss() {
  // Return freed heap to the kernel first, so the new baseline is live
  // memory rather than whatever earlier phases left mapped.
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  if (out) {
    out << "5";
    out.flush();
  }
  if (!out) {
    throw Error("cannot reset VmHWM through /proc/self/clear_refs");
  }
}

double peakRssMb() { return statusField("VmHWM:") / 1024.0; }  // kB -> MiB

int threadCount() { return static_cast<int>(statusField("Threads:")); }

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t treeBytes(const std::string& dir) {
  std::error_code ec;
  if (!fs::exists(dir, ec)) return 0;
  std::uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

std::uint64_t countLinesFrom(const std::string& path, std::uint64_t offset) {
  std::ifstream in(path, std::ios::binary);
  in.seekg(static_cast<std::streamoff>(offset));
  std::uint64_t lines = 0;
  char buffer[1 << 16];
  while (in.read(buffer, sizeof buffer) || in.gcount() > 0) {
    lines += static_cast<std::uint64_t>(
        std::count(buffer, buffer + in.gcount(), '\n'));
  }
  return lines;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot read '" + path + "'");
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

std::uint64_t fileSize(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

void removeTree(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  if (ec) throw Error("cannot remove '" + dir + "': " + ec.message());
}

void settleFilesystem(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) throw Error("cannot open '" + dir + "'");
  const int rc = ::syncfs(fd);
  ::close(fd);
  if (rc != 0) throw Error("syncfs failed on '" + dir + "'");
}

namespace {

/// Whether two files hold the same bytes.  Compares through fixed
/// buffers: reading whole files into strings would free blocks big
/// enough to move glibc's mmap threshold, and with it the heap layout
/// the measured program sees.
bool sameBytes(const fs::path& a, const fs::path& b) {
  if (fs::file_size(a) != fs::file_size(b)) return false;
  std::ifstream inA(a, std::ios::binary);
  std::ifstream inB(b, std::ios::binary);
  char bufA[1 << 14];
  char bufB[1 << 14];
  while (inA && inB) {
    inA.read(bufA, sizeof bufA);
    inB.read(bufB, sizeof bufB);
    if (inA.gcount() != inB.gcount() ||
        !std::equal(bufA, bufA + inA.gcount(), bufB)) {
      return false;
    }
  }
  return inA.eof() && inB.eof();
}

}  // namespace

void restoreTree(const std::string& from, const std::string& to) {
  if (!fs::exists(from)) {
    removeTree(to);
    return;
  }
  // Recreating a store of a thousand files costs more than the ops a
  // short repetition times, while an op changes a few of them: keep every
  // file whose bytes still match and replace the rest.
  if (fs::exists(to)) {
    std::vector<fs::path> stale;
    for (auto it = fs::recursive_directory_iterator(to);
         it != fs::recursive_directory_iterator(); ++it) {
      const fs::path twin = fs::path(from) / it->path().lexically_relative(to);
      if (it->is_directory() && fs::is_directory(twin)) continue;
      if (it->is_regular_file() && fs::is_regular_file(twin) &&
          sameBytes(it->path(), twin)) {
        continue;
      }
      stale.push_back(it->path());
      if (it->is_directory()) it.disable_recursion_pending();
    }
    for (const fs::path& path : stale) fs::remove_all(path);
  }
  fs::create_directories(fs::path(to).parent_path());
  fs::copy(from, to,
           fs::copy_options::recursive | fs::copy_options::skip_existing);
}

namespace {

std::string filesystemName(const std::string& dir) {
  struct statfs info {};
  if (statfs(dir.c_str(), &info) != 0) return "unknown";
  static const std::map<long, std::string> kNames = {
      {0xEF53, "ext4"},          {0x01021994, "tmpfs"},
      {0x794c7630, "overlayfs"}, {0x58465342, "xfs"},
      {0x9123683E, "btrfs"},     {0x6969, "nfs"},
      {0x65735546, "fuse"},      {0x2fc12fc1, "zfs"}};
  const auto it = kNames.find(static_cast<long>(info.f_type));
  if (it != kNames.end()) return it->second;
  std::ostringstream hex;
  hex << "0x" << std::hex << info.f_type;
  return hex.str();
}

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string trimmed(std::string text) {
  while (!text.empty() && (text.back() == '\n' || text.back() == ' ')) {
    text.pop_back();
  }
  return text;
}

/// Resolves HEAD without running git: .git/HEAD, then the loose ref or
/// packed-refs.  A checkout without .git reads "unknown".
std::string gitCommit() {
  std::ifstream headFile(".git/HEAD");
  std::string head;
  if (!std::getline(headFile, head)) return "unknown";
  head = trimmed(head);
  if (head.rfind("ref: ", 0) != 0) return head;
  const std::string ref = head.substr(5);
  std::ifstream loose(".git/" + ref);
  std::string commit;
  if (std::getline(loose, commit)) return trimmed(commit);
  std::ifstream packed(".git/packed-refs");
  std::string line;
  while (std::getline(packed, line)) {
    const std::size_t space = line.find(' ');
    if (space != std::string::npos && line.substr(space + 1) == ref) {
      return line.substr(0, space);
    }
  }
  return "unknown";
}

}  // namespace

Fingerprint fingerprint(const std::string& workDir) {
  Fingerprint fp;
  fp.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  fp.cpuModel = cpuModel();
  struct utsname name {};
  fp.kernel = uname(&name) == 0 ? name.release : "unknown";
  fp.filesystem = filesystemName(workDir);
  fp.compiler = REBENCH_E2E_COMPILER;
  fp.buildType = REBENCH_E2E_BUILD_TYPE;
  fp.gitCommit = gitCommit();
  return fp;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

}  // namespace rebench::e2e
