// A traced copy of `Service::run` (once, jobs 1).
//
// Service::run cannot be seen into from outside, so the traced drain
// calls the same public functions in the same order as
// processSubmission — scanQueue, runKeyFor, RunCache::lookup,
// ServiceJournal::record*, Pipeline + executeCampaign,
// writeCampaignManifest, appendCampaignHistory, gateCampaign,
// RunCache::insert, writeVerdict and the health refresh — with a span
// around each call.  It keeps a TelemetryPlane so it does the same work.
// The benchmark checks that it leaves the verdict files, the
// history/head ref and the runcache/* refs byte-identical to an untraced
// drain.  Crash-resume and quarantine paths are not modelled: a journal
// holding an unfinished claim makes it throw.
#pragma once

#include <iosfwd>
#include <string>

#include "core/service/service.hpp"

namespace rebench::e2e {

class LayerTrace;

/// Drains `queueDir` once into `storeDir`, writing "<id> <verdict>"
/// progress lines to `log` like ServeOptions::log.
service::ServeReport tracedServeRun(LayerTrace& trace,
                                    const SystemRegistry& systems,
                                    const PackageRepository& repo,
                                    const std::string& queueDir,
                                    const std::string& storeDir,
                                    const service::TestResolver& resolver,
                                    std::ostream& log);

}  // namespace rebench::e2e
