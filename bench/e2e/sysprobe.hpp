// Process and filesystem probes for the end-to-end benchmark.
//
// Everything here reads the benchmark's own process (/proc/self) or the
// directories it works in; nothing touches the code under measurement.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rebench::e2e {

/// Counters from /proc/self/io.
struct IoCounters {
  std::uint64_t rchar = 0;  // bytes returned by read-family syscalls
  std::uint64_t wchar = 0;  // bytes passed to write-family syscalls
  std::uint64_t syscw = 0;  // write-family syscalls
};
IoCounters readIo();

/// Returns free heap memory to the kernel and resets VmHWM to the
/// current RSS (`5 > /proc/self/clear_refs`).  Throws when the kernel
/// refuses: VmHWM would then cover earlier phases, not the timed one.
void resetPeakRss();
/// VmHWM in MiB.
double peakRssMb();
/// Threads of this process right now.
int threadCount();

/// Steady-clock seconds (arbitrary epoch).
double nowSeconds();

/// Total size of the regular files under `dir` (0 when absent).
std::uint64_t treeBytes(const std::string& dir);
/// Number of '\n' bytes in `path` from byte `offset` on.
std::uint64_t countLinesFrom(const std::string& path, std::uint64_t offset);
std::string readFile(const std::string& path);
std::uint64_t fileSize(const std::string& path);

/// Makes `to` a copy of `from`, rewriting only the files that differ (a
/// missing `from` leaves `to` absent, which is how an empty initial
/// state is restored).
void restoreTree(const std::string& from, const std::string& to);
void removeTree(const std::string& dir);
/// Writes back the dirty data of the filesystem holding `dir` (syncfs),
/// so a timed phase does not pay for the writes that set it up.
void settleFilesystem(const std::string& dir);

/// Machine and build facts recorded with every result.
struct Fingerprint {
  int nproc = 0;
  std::string cpuModel;
  std::string kernel;
  std::string filesystem;  // of the work directory
  std::string compiler;
  std::string buildType;
  std::string gitCommit;   // "unknown" outside a git checkout
};
Fingerprint fingerprint(const std::string& workDir);

/// Percentile by linear interpolation between order statistics (the
/// definition numpy and `statistics.quantiles(method="inclusive")` use).
double percentile(std::vector<double> values, double p);

}  // namespace rebench::e2e
