#include "core/obs/trace_reader.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>

#include "core/obs/json.hpp"
#include "core/util/error.hpp"
#include "core/util/strings.hpp"

namespace rebench::obs {

namespace {

AttrMap readAttrs(const json::Value& record) {
  AttrMap attrs;
  if (!record.contains("attrs")) return attrs;
  const json::Value& object = record.at("attrs");
  if (!object.isObject()) throw ParseError("trace: 'attrs' is not an object");
  for (const auto& [key, value] : object.object) {
    if (!value.isString()) {
      throw ParseError("trace: attribute '" + key + "' is not a string");
    }
    attrs[key] = value.text;
  }
  return attrs;
}

}  // namespace

TraceFile parseTraceJsonl(const std::string& text) {
  TraceFile trace;
  std::istringstream in(text);
  std::string line;
  std::size_t lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    if (str::trim(line).empty()) continue;
    json::Value record;
    try {
      record = json::parse(line);
    } catch (const ParseError& e) {
      throw ParseError("trace line " + std::to_string(lineNo) + ": " +
                       e.what());
    }
    if (!record.isObject()) {
      throw ParseError("trace line " + std::to_string(lineNo) +
                       ": not a JSON object");
    }
    const std::string kind = record.stringOr("kind", "");
    if (kind == "meta") {
      trace.schema = record.stringOr("schema", "");
      trace.clockKind = record.stringOr("clock", "");
    } else if (kind == "span") {
      SpanRecord span;
      span.id = record.at("id").text;
      span.parent = record.stringOr("parent", "");
      span.name = record.at("name").text;
      span.start = record.at("start").number;
      span.end = record.at("end").number;
      span.attrs = readAttrs(record);
      trace.timeline.push_back({"span", span.end});
      trace.spans.push_back(std::move(span));
    } else if (kind == "event") {
      EventRecord event;
      event.span = record.stringOr("span", "");
      event.name = record.at("name").text;
      event.time = record.at("time").number;
      event.attrs = readAttrs(record);
      trace.timeline.push_back({"event", event.time});
      trace.events.push_back(std::move(event));
    } else if (kind == "counter") {
      trace.counters[record.at("name").text] =
          static_cast<std::uint64_t>(record.at("value").number);
    } else if (kind == "gauge") {
      trace.gauges[record.at("name").text] = {record.at("value").number,
                                              record.numberOr("max", 0.0)};
    } else if (kind == "histogram") {
      TraceFile::HistogramDump dump;
      for (const json::Value& bound : record.at("bounds").array) {
        dump.bounds.push_back(bound.number);
      }
      for (const json::Value& count : record.at("counts").array) {
        dump.counts.push_back(static_cast<std::uint64_t>(count.number));
      }
      dump.count = static_cast<std::uint64_t>(record.at("count").number);
      dump.sum = record.at("sum").number;
      trace.histograms[record.at("name").text] = std::move(dump);
    } else {
      throw ParseError("trace line " + std::to_string(lineNo) +
                       ": unknown record kind '" + kind + "'");
    }
  }
  return trace;
}

TraceFile readTraceFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot read trace file '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return parseTraceJsonl(text.str());
}

std::vector<std::string> lintTrace(const TraceFile& trace) {
  std::vector<std::string> issues;

  if (trace.schema != kTraceSchema) {
    issues.push_back("unknown or missing schema '" + trace.schema +
                     "' (expected '" + std::string(kTraceSchema) + "')");
  }
  if (trace.clockKind != "sim" && trace.clockKind != "wall") {
    issues.push_back("meta line missing a valid clock kind");
  }

  std::set<std::string> ids;
  for (const SpanRecord& span : trace.spans) {
    if (!ids.insert(span.id).second) {
      issues.push_back("duplicate span id '" + span.id + "'");
    }
  }
  std::map<std::string, const SpanRecord*> byId;
  for (const SpanRecord& span : trace.spans) byId[span.id] = &span;

  for (const SpanRecord& span : trace.spans) {
    if (span.end < span.start) {
      issues.push_back("span '" + span.id + "' (" + span.name +
                       ") ends before it starts");
    }
    if (span.parent.empty()) continue;
    auto it = byId.find(span.parent);
    if (it == byId.end()) {
      issues.push_back("span '" + span.id + "' (" + span.name +
                       ") has unknown parent '" + span.parent + "'");
      continue;
    }
    const SpanRecord& parent = *it->second;
    if (span.start < parent.start || span.end > parent.end) {
      issues.push_back("span '" + span.id + "' (" + span.name +
                       ") is not nested inside its parent '" + span.parent +
                       "'");
    }
  }

  for (const EventRecord& event : trace.events) {
    if (!event.span.empty() && byId.find(event.span) == byId.end()) {
      issues.push_back("event '" + event.name + "' references unknown span '" +
                       event.span + "'");
    }
  }

  // Fault-injection records carry a contract of their own: every
  // fault.inject event names what fired and at which attempt key, every
  // fault.quarantine event names the opened breaker key, and every
  // backoff span records which retry it delayed and for how long.
  for (const EventRecord& event : trace.events) {
    if (event.name == "fault.inject") {
      if (event.attrs.find("kind") == event.attrs.end()) {
        issues.push_back("fault.inject event without a 'kind' attribute");
      }
      if (event.attrs.find("key") == event.attrs.end()) {
        issues.push_back("fault.inject event without a 'key' attribute");
      }
    } else if (event.name == "fault.quarantine") {
      if (event.attrs.find("key") == event.attrs.end()) {
        issues.push_back("fault.quarantine event without a 'key' attribute");
      }
    }
  }
  // Store records have an attribute contract too: a lookup span says
  // what key it resolved and how it went, a put event names the object
  // it stored.
  for (const EventRecord& event : trace.events) {
    if (event.name != "store.put") continue;
    if (event.attrs.find("hash") == event.attrs.end()) {
      issues.push_back("store.put event without a 'hash' attribute");
    }
    if (event.attrs.find("bytes") == event.attrs.end()) {
      issues.push_back("store.put event without a 'bytes' attribute");
    }
  }
  for (const SpanRecord& span : trace.spans) {
    if (span.name != "backoff") continue;
    if (span.attrs.find("attempt") == span.attrs.end()) {
      issues.push_back("backoff span '" + span.id +
                       "' without an 'attempt' attribute");
    }
    if (span.attrs.find("seconds") == span.attrs.end()) {
      issues.push_back("backoff span '" + span.id +
                       "' without a 'seconds' attribute");
    }
  }
  for (const SpanRecord& span : trace.spans) {
    if (span.name != "store.lookup") continue;
    if (span.attrs.find("key") == span.attrs.end()) {
      issues.push_back("store.lookup span '" + span.id +
                       "' without a 'key' attribute");
    }
    const auto outcome = span.attrs.find("outcome");
    if (outcome == span.attrs.end()) {
      issues.push_back("store.lookup span '" + span.id +
                       "' without an 'outcome' attribute");
    } else if (outcome->second != "hit" && outcome->second != "miss" &&
               outcome->second != "corrupt" && outcome->second != "drift") {
      issues.push_back("store.lookup span '" + span.id +
                       "' has invalid outcome '" + outcome->second + "'");
    }
  }
  // Parallel-executor records: a single-flight span names the build key
  // it coordinated and the role the campaign settled into, and a worker
  // span identifies its campaign completely.
  for (const SpanRecord& span : trace.spans) {
    if (span.name == "store.singleflight") {
      if (span.attrs.find("key") == span.attrs.end()) {
        issues.push_back("store.singleflight span '" + span.id +
                         "' without a 'key' attribute");
      }
      const auto role = span.attrs.find("role");
      if (role == span.attrs.end()) {
        issues.push_back("store.singleflight span '" + span.id +
                         "' without a 'role' attribute");
      } else if (role->second != "leader" && role->second != "follower" &&
                 role->second != "cached") {
        issues.push_back("store.singleflight span '" + span.id +
                         "' has invalid role '" + role->second + "'");
      }
    } else if (span.name == "exec.worker") {
      for (const char* required :
           {"campaign", "test", "target", "repeat", "lane", "sim_seconds"}) {
        if (span.attrs.find(required) == span.attrs.end()) {
          issues.push_back("exec.worker span '" + span.id + "' without a '" +
                           required + "' attribute");
        }
      }
      // The lane is a canonical virtual-lane index (profiling schedule),
      // so it must parse as a non-negative integer.
      if (const auto lane = span.attrs.find("lane");
          lane != span.attrs.end()) {
        const std::string& text = lane->second;
        const bool numeric =
            !text.empty() &&
            text.find_first_not_of("0123456789") == std::string::npos;
        if (!numeric) {
          issues.push_back("exec.worker span '" + span.id +
                           "' has non-numeric lane '" + text + "'");
        }
      }
    } else if (span.name == "history.append" ||
               span.name == "history.query") {
      // History spans identify the series they touched and how many
      // records were involved; `records` must count.
      for (const char* required : {"test", "target", "fom", "records"}) {
        if (span.attrs.find(required) == span.attrs.end()) {
          issues.push_back(span.name + " span '" + span.id + "' without a '" +
                           required + "' attribute");
        }
      }
      if (const auto records = span.attrs.find("records");
          records != span.attrs.end()) {
        const std::string& text = records->second;
        const bool numeric =
            !text.empty() &&
            text.find_first_not_of("0123456789") == std::string::npos;
        if (!numeric) {
          issues.push_back(span.name + " span '" + span.id +
                           "' has non-numeric records '" + text + "'");
        }
      }
    } else if (span.name == "serve.submission") {
      // The daemon's per-submission record names the submission it
      // answered and the verdict it filed.
      for (const char* required : {"submission", "verdict"}) {
        if (span.attrs.find(required) == span.attrs.end()) {
          issues.push_back("serve.submission span '" + span.id +
                           "' without a '" + required + "' attribute");
        }
      }
    } else if (span.name == "serve.watchdog") {
      // A fired serve watchdog records what it guarded and both sides of
      // the comparison that tripped it.
      for (const char* required :
           {"stage", "limit_seconds", "elapsed_seconds"}) {
        if (span.attrs.find(required) == span.attrs.end()) {
          issues.push_back("serve.watchdog span '" + span.id +
                           "' without a '" + required + "' attribute");
        }
      }
    } else if (span.name == "telemetry.probe") {
      // A resource-probe span names the stage it measured and carries
      // the rusage delta: decimal CPU milliseconds plus integer
      // counters.
      for (const char* required :
           {"stage", "rusage_user_ms", "rusage_sys_ms",
            "rusage_maxrss_kb"}) {
        if (span.attrs.find(required) == span.attrs.end()) {
          issues.push_back("telemetry.probe span '" + span.id +
                           "' without a '" + required + "' attribute");
        }
      }
      for (const char* decimalKey : {"rusage_user_ms", "rusage_sys_ms"}) {
        const auto it = span.attrs.find(decimalKey);
        if (it == span.attrs.end()) continue;
        const std::string& text = it->second;
        const bool numeric =
            !text.empty() &&
            text.find_first_not_of("0123456789.") == std::string::npos &&
            std::count(text.begin(), text.end(), '.') <= 1;
        if (!numeric) {
          issues.push_back("telemetry.probe span '" + span.id +
                           "' has non-numeric " + decimalKey + " '" + text +
                           "'");
        }
      }
      if (const auto rss = span.attrs.find("rusage_maxrss_kb");
          rss != span.attrs.end()) {
        const std::string& text = rss->second;
        const bool numeric =
            !text.empty() &&
            text.find_first_not_of("0123456789") == std::string::npos;
        if (!numeric) {
          issues.push_back("telemetry.probe span '" + span.id +
                           "' has non-numeric rusage_maxrss_kb '" + text +
                           "'");
        }
      }
    } else if (span.name == "serve.endpoint") {
      // A status-endpoint request span records the route it answered and
      // the HTTP status it returned.
      for (const char* required : {"route", "status"}) {
        if (span.attrs.find(required) == span.attrs.end()) {
          issues.push_back("serve.endpoint span '" + span.id +
                           "' without a '" + required + "' attribute");
        }
      }
      if (const auto status = span.attrs.find("status");
          status != span.attrs.end()) {
        const std::string& text = status->second;
        const bool numeric =
            !text.empty() &&
            text.find_first_not_of("0123456789") == std::string::npos;
        int code = 0;
        if (numeric) code = std::atoi(text.c_str());
        if (!numeric || code < 100 || code > 599) {
          issues.push_back("serve.endpoint span '" + span.id +
                           "' has invalid status '" + text + "'");
        }
      }
    } else if (span.name == "store.runcache") {
      if (span.attrs.find("key") == span.attrs.end()) {
        issues.push_back("store.runcache span '" + span.id +
                         "' without a 'key' attribute");
      }
      const auto outcome = span.attrs.find("outcome");
      if (outcome == span.attrs.end()) {
        issues.push_back("store.runcache span '" + span.id +
                         "' without an 'outcome' attribute");
      } else if (outcome->second != "hit" && outcome->second != "miss" &&
                 outcome->second != "corrupt" &&
                 outcome->second != "stale") {
        issues.push_back("store.runcache span '" + span.id +
                         "' has invalid outcome '" + outcome->second + "'");
      }
    } else if (span.name == "infer.controller" ||
               span.name == "infer.changepoint") {
      // Inference spans carry the statistical evidence behind a
      // run-length decision (controller) or a gate verdict
      // (changepoint): the series identity plus the estimator outputs.
      for (const char* required :
           {"test", "target", "fom", "repeats", "ess", "ci_halfwidth"}) {
        if (span.attrs.find(required) == span.attrs.end()) {
          issues.push_back(span.name + " span '" + span.id + "' without a '" +
                           required + "' attribute");
        }
      }
      if (const auto repeats = span.attrs.find("repeats");
          repeats != span.attrs.end()) {
        const std::string& text = repeats->second;
        const bool numeric =
            !text.empty() &&
            text.find_first_not_of("0123456789") == std::string::npos;
        if (!numeric) {
          issues.push_back(span.name + " span '" + span.id +
                           "' has non-numeric repeats '" + text + "'");
        }
      }
    } else if (str::startsWith(span.name, "postproc.columnar.")) {
      // Columnar-engine spans account for the work they did: every record
      // counts rows; convert and merge count chunks (merge also names its
      // input count); kernel spans say which kernel ran and how many
      // chunks the zone maps let it skip.
      const auto requireCount = [&issues, &span](const char* key) {
        const auto it = span.attrs.find(key);
        if (it == span.attrs.end()) {
          issues.push_back(span.name + " span '" + span.id + "' without a '" +
                           key + "' attribute");
          return;
        }
        const std::string& text = it->second;
        const bool numeric =
            !text.empty() &&
            text.find_first_not_of("0123456789") == std::string::npos;
        if (!numeric) {
          issues.push_back(span.name + " span '" + span.id +
                           "' has non-numeric " + key + " '" + text + "'");
        }
      };
      requireCount("rows");
      if (span.name == "postproc.columnar.convert" ||
          span.name == "postproc.columnar.merge") {
        requireCount("chunks");
      }
      if (span.name == "postproc.columnar.merge") {
        requireCount("inputs");
      }
      if (span.name == "postproc.columnar.kernel") {
        if (span.attrs.find("kernel") == span.attrs.end()) {
          issues.push_back("postproc.columnar.kernel span '" + span.id +
                           "' without a 'kernel' attribute");
        }
        requireCount("skipped_chunks");
      }
    }
  }

  // Shard-merge contract: Tracer::absorb renumbers shard roots to follow
  // the host tracer's, so in file order the leading root number of every
  // span and event is non-decreasing (and span ids stay unique — checked
  // above).  A violation means a merge scrambled or duplicated shards.
  auto rootNumber = [](const std::string& id) -> long {
    const std::string head = id.substr(0, id.find('.'));
    if (head.empty() ||
        head.find_first_not_of("0123456789") != std::string::npos) {
      return -1;  // malformed; reported by the parent checks
    }
    return std::stol(head);
  };
  long previousRoot = 0;
  std::size_t spanIdx = 0, eventIdx = 0;
  for (const TraceFile::TimelineEntry& entry : trace.timeline) {
    std::string owner;
    if (entry.kind == "span") {
      owner = trace.spans[spanIdx++].id;
    } else {
      owner = trace.events[eventIdx++].span;
      if (owner.empty()) continue;  // unowned events carry no root
    }
    const long root = rootNumber(owner);
    if (root < 0) continue;
    if (root < previousRoot) {
      issues.push_back("non-monotone root ids after merge: record of root " +
                       std::to_string(root) + " follows root " +
                       std::to_string(previousRoot));
    }
    previousRoot = std::max(previousRoot, root);
  }

  double previous = 0.0;
  bool first = true;
  for (const TraceFile::TimelineEntry& entry : trace.timeline) {
    if (!first && entry.time < previous) {
      issues.push_back("non-monotone timestamps: " + entry.kind + " at " +
                       str::fixed(entry.time, 6) + " after " +
                       str::fixed(previous, 6));
    }
    previous = entry.time;
    first = false;
  }

  return issues;
}

}  // namespace rebench::obs
