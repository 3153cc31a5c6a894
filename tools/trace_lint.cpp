// trace_lint — validates a rebench trace JSONL file and a store's
// history chain.
//
//   $ trace_lint trace.jsonl
//   trace OK: 9 spans, 4 events, 12 metrics
//   $ trace_lint trace.jsonl --store DIR
//   trace OK: ...
//   history OK: 6 record(s) in 3 segment(s)
//   $ trace_lint --store DIR
//   history OK: 6 record(s) in 3 segment(s)
//
// Exit 0 when the trace satisfies every structural invariant the writer
// guarantees (known schema version, monotone timestamps, parented spans,
// no orphan events, span attribute contracts); exit 1 with one message
// per violation otherwise.
// With --store DIR (the trace is then optional) the store's history
// chain is also checked (history::lintHistory): every record must cite a
// manifest object that reads back verified and records its series.  A
// corrupt manifest is deleted by that read, as every verified store read
// does.  A DIR with no objects/ is a usage error (exit 2), not an empty
// history.
// ctest runs this over the trace the quickstart example produces.
#include <filesystem>
#include <iostream>
#include <string>

#include "core/history/history.hpp"
#include "core/obs/trace_reader.hpp"
#include "core/store/object_store.hpp"
#include "core/util/error.hpp"

namespace {

/// Walks the store's history chain and checks each record against the
/// manifest it cites.  Returns the number of problems found (printed to
/// stderr).
int lintHistory(const std::string& storeDir) {
  rebench::store::ObjectStore store(storeDir);
  const rebench::history::Chain chain =
      rebench::history::HistoryIndex(store).readChain();
  const std::vector<std::string> issues =
      rebench::history::lintHistory(store, chain.records);
  for (const std::string& issue : issues) {
    std::cerr << "trace_lint: " << issue << "\n";
  }
  if (issues.empty()) {
    std::cout << "history OK: " << chain.records.size() << " record(s) in "
              << chain.segments.size() << " segment(s)\n";
  }
  return static_cast<int>(issues.size());
}

}  // namespace

int main(int argc, char** argv) {
  std::string tracePath;
  std::string storeDir;
  bool usageError = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--store" && i + 1 < argc) {
      storeDir = argv[++i];
    } else if (tracePath.empty()) {
      tracePath = arg;
    } else {
      usageError = true;
      break;
    }
  }
  if ((tracePath.empty() && storeDir.empty()) || usageError) {
    std::cerr << "usage: trace_lint <trace.jsonl> [--store DIR]\n"
                 "       trace_lint --store DIR\n";
    return 2;
  }
  // A mistyped DIR must not pass as an empty history, nor become a store.
  if (!storeDir.empty() &&
      !std::filesystem::exists(std::filesystem::path(storeDir) / "objects")) {
    std::cerr << "trace_lint: no store at " << storeDir << "\n";
    return 2;
  }
  try {
    int problems = 0;
    if (!tracePath.empty()) {
      const rebench::obs::TraceFile trace =
          rebench::obs::readTraceFile(tracePath);
      const std::vector<std::string> issues = rebench::obs::lintTrace(trace);
      for (const std::string& issue : issues) {
        std::cerr << "trace_lint: " << issue << "\n";
      }
      problems = static_cast<int>(issues.size());
      if (problems == 0) {
        const std::size_t metrics = trace.counters.size() +
                                    trace.gauges.size() +
                                    trace.histograms.size();
        std::cout << "trace OK: " << trace.spans.size() << " spans, "
                  << trace.events.size() << " events, " << metrics
                  << " metrics\n";
      }
    }
    if (!storeDir.empty()) problems += lintHistory(storeDir);
    return problems == 0 ? 0 : 1;
  } catch (const rebench::Error& e) {
    std::cerr << "trace_lint: " << e.what() << "\n";
    return 1;
  }
}
