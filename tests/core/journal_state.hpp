// Test helper: renders everything a service journal holds for one
// submission, doubles in shortest round-trip form, so two equal
// renderings mean bit-identical replayed state.
#pragma once

#include <sstream>
#include <string>

#include "core/service/journal.hpp"

namespace rebench::service {

inline std::string describe(ServiceJournal::State state, int crashedClaims,
                            const ExecutedRecord* executed,
                            const VerdictRecord* verdict) {
  std::ostringstream out;
  out << "state " << static_cast<int>(state) << " crashed " << crashedClaims;
  if (executed != nullptr) {
    out << "\nexecuted [" << executed->key << "] [" << executed->manifestHash
        << "] [" << executed->perflogHash << "] " << executed->runs << " "
        << formatExact(executed->simSeconds) << " [" << executed->failedStage
        << "] [" << executed->failureClass << "] ["
        << executed->failureDetail << "]";
    for (const AggregateRecord& a : executed->aggregates) {
      out << "\n  [" << a.test << "] [" << a.target << "] [" << a.fom
          << "] [" << a.specHash << "] " << formatExact(a.mean) << " "
          << formatExact(a.min) << " " << formatExact(a.max) << " "
          << formatExact(a.ci) << " " << formatExact(a.ess) << " "
          << a.repeats;
    }
  }
  if (verdict != nullptr) {
    out << "\nverdict [" << verdict->verdict << "] [" << verdict->key
        << "] [" << verdict->manifestHash << "] " << verdict->degraded
        << " [" << verdict->detail << "]";
  }
  return out.str();
}

inline std::string describe(const ServiceJournal& journal,
                            const std::string& id) {
  return describe(journal.state(id), journal.crashedClaims(id),
                  journal.executed(id), journal.verdictOf(id));
}

}  // namespace rebench::service
