// Test helper: every entry under a directory with its bytes, so a test
// can assert that an operation wrote nothing there.
#pragma once

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

namespace rebench {

/// Relative path -> bytes of every file under `dir`; a directory maps
/// from its path plus '/' to "".
inline std::map<std::string, std::string> snapshotDir(const std::string& dir) {
  namespace fs = std::filesystem;
  std::map<std::string, std::string> entries;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    const std::string name = fs::relative(entry.path(), dir).string();
    if (entry.is_directory()) {
      entries[name + "/"] = "";
      continue;
    }
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    entries[name] = bytes.str();
  }
  return entries;
}

}  // namespace rebench
