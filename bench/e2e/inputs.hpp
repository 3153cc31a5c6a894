// Seeded inputs for the end-to-end benchmark, and the test resolver that
// maps a queued invocation to its tests the way `rebench serve` does.
//
// The program receives only what is generated here: submissions and a
// synthetic history store.  Sizes are fixed by the workload; --seed only
// changes which inputs of each kind are drawn.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/service/service.hpp"
#include "core/store/manifest.hpp"

namespace rebench::e2e {

class LayerTrace;

/// The six simulated systems every generated input targets; each runs
/// every combination drawn below without failing.
const std::vector<std::string>& benchSystems();

/// `count` distinct serve submissions: ~70% single-target
/// babelstream/hpcg/hpgmg runs, ~20% adaptive (--ci-halfwidth 0.02),
/// ~10% suite-tag campaigns.  Every seed queues the same work; the seed
/// picks each submission's project account, and with it the queue order.
std::vector<store::CampaignInvocation> serveSubmissions(std::uint64_t seed,
                                                        int count);

/// Resolves invocations exactly like the CLI's resolveSubmissionTests.
/// With a trace, every test body is wrapped so its busy time is recorded
/// as a payload interval of its benchmark family.
service::TestResolver makeResolver(LayerTrace* trace);

/// Builds a synthetic history with HistoryIndex::appendSegment: `series`
/// series spread over `segments` five-record segments.  A seeded tenth
/// of the series drops by 15-30% in its newest record; the returned set
/// names them ("test|target|fom"), which is what `history --check`
/// must flag.
std::set<std::string> buildSyntheticHistory(const std::string& storeDir,
                                            std::uint64_t seed, int series,
                                            int segments);

}  // namespace rebench::e2e
