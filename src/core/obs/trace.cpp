#include "core/obs/trace.hpp"

#include <sstream>

#include "core/fault/journal.hpp"
#include "core/obs/json.hpp"
#include "core/util/error.hpp"
#include "core/util/strings.hpp"

namespace rebench::obs {

namespace {

void putAttrs(std::ostream& out, const AttrMap& attrs) {
  if (attrs.empty()) return;
  out << ",\"attrs\":{";
  bool first = true;
  for (const auto& [key, value] : attrs) {
    if (!first) out << ",";
    first = false;
    out << json::quote(key) << ":" << json::quote(value);
  }
  out << "}";
}

}  // namespace

Tracer::Tracer(std::unique_ptr<TraceClock> clock)
    : clock_(clock ? std::move(clock) : std::make_unique<SimClock>()) {}

std::string Tracer::beginSpan(std::string name) {
  OpenSpan span;
  if (stack_.empty()) {
    span.record.id = std::to_string(++rootCount_);
  } else {
    OpenSpan& parent = stack_.back();
    span.record.id =
        parent.record.id + "." + std::to_string(++parent.childCount);
    span.record.parent = parent.record.id;
  }
  span.record.name = std::move(name);
  span.record.start = clock_->now();
  stack_.push_back(std::move(span));
  return stack_.back().record.id;
}

void Tracer::setAttr(std::string_view key, std::string_view value) {
  REBENCH_REQUIRE(!stack_.empty());
  stack_.back().record.attrs[std::string(key)] = std::string(value);
}

void Tracer::setAttrOn(std::string_view id, std::string_view key,
                       std::string_view value) {
  for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
    if (it->record.id == id) {
      it->record.attrs[std::string(key)] = std::string(value);
      return;
    }
  }
  throw InternalError("setAttrOn: span '" + std::string(id) + "' is not open");
}

const SpanRecord& Tracer::endSpan() {
  REBENCH_REQUIRE(!stack_.empty());
  SpanRecord record = std::move(stack_.back().record);
  stack_.pop_back();
  record.end = clock_->now();
  spans_.push_back(std::move(record));
  emitted_.push_back({Emitted::Kind::kSpan, spans_.size() - 1});
  return spans_.back();
}

void Tracer::annotateCompleted(std::string_view id, std::string_view key,
                               std::string_view value) {
  // Completed spans are few per shard and annotation is rare (once per
  // campaign at emission time), so a linear scan beats maintaining an
  // id index on the hot begin/end path.
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->id == id) {
      it->attrs[std::string(key)] = std::string(value);
      return;
    }
  }
  throw InternalError("annotateCompleted: no completed span '" +
                      std::string(id) + "'");
}

void Tracer::event(std::string name, AttrMap attrs) {
  eventAt(clock_->peek(), std::move(name), std::move(attrs));
}

void Tracer::eventAt(double time, std::string name, AttrMap attrs) {
  // Never step backwards: a component's own timeline (e.g. scheduler
  // simulated seconds) may lag the trace clock by a few micro-ticks.
  clock_->advanceTo(time);
  EventRecord record;
  record.span = currentSpanId();
  record.name = std::move(name);
  record.time = clock_->now();
  record.attrs = std::move(attrs);
  events_.push_back(std::move(record));
  emitted_.push_back({Emitted::Kind::kEvent, events_.size() - 1});
}

void Tracer::absorb(const Tracer& shard) {
  REBENCH_REQUIRE(stack_.empty());
  REBENCH_REQUIRE(shard.stack_.empty());
  const double offset = clock_->peek();
  const int rootBase = rootCount_;
  // Shard span ids are hierarchical ("3", "3.1.2"); shifting the leading
  // root number by rootBase makes them continue our numbering.
  auto remapId = [rootBase](const std::string& id) -> std::string {
    if (id.empty()) return id;
    const std::size_t dot = id.find('.');
    const std::string head = id.substr(0, dot);
    const int root =
        str::parseWhole<int>(head, "root of shard span '" + id + "'") +
        rootBase;
    if (dot == std::string::npos) return std::to_string(root);
    return std::to_string(root) + id.substr(dot);
  };
  for (const Emitted& emitted : shard.emitted_) {
    if (emitted.kind == Emitted::Kind::kSpan) {
      SpanRecord span = shard.spans_[emitted.index];
      span.id = remapId(span.id);
      span.parent = remapId(span.parent);
      span.start += offset;
      span.end += offset;
      spans_.push_back(std::move(span));
      emitted_.push_back({Emitted::Kind::kSpan, spans_.size() - 1});
    } else {
      EventRecord event = shard.events_[emitted.index];
      event.span = remapId(event.span);
      event.time += offset;
      events_.push_back(std::move(event));
      emitted_.push_back({Emitted::Kind::kEvent, events_.size() - 1});
    }
  }
  rootCount_ += shard.rootCount_;
  clock_->advanceTo(offset + shard.clock_->peek());
}

std::string Tracer::currentSpanId() const {
  return stack_.empty() ? std::string() : stack_.back().record.id;
}

void Tracer::writeJsonl(std::ostream& out,
                        const MetricsRegistry* metrics) const {
  out << "{\"schema\":" << json::quote(kTraceSchema)
      << ",\"kind\":\"meta\",\"tool\":\"rebench\",\"clock\":"
      << json::quote(clock_->kind()) << "}\n";
  for (const Emitted& emitted : emitted_) {
    if (emitted.kind == Emitted::Kind::kSpan) {
      const SpanRecord& span = spans_[emitted.index];
      out << "{\"kind\":\"span\",\"id\":" << json::quote(span.id)
          << ",\"parent\":" << json::quote(span.parent)
          << ",\"name\":" << json::quote(span.name)
          << ",\"start\":" << str::fixed(span.start, 6)
          << ",\"end\":" << str::fixed(span.end, 6);
      putAttrs(out, span.attrs);
      out << "}\n";
    } else {
      const EventRecord& event = events_[emitted.index];
      out << "{\"kind\":\"event\",\"span\":" << json::quote(event.span)
          << ",\"name\":" << json::quote(event.name)
          << ",\"time\":" << str::fixed(event.time, 6);
      putAttrs(out, event.attrs);
      out << "}\n";
    }
  }
  if (metrics == nullptr) return;
  for (const auto& [name, counter] : metrics->counters()) {
    out << "{\"kind\":\"counter\",\"name\":" << json::quote(name)
        << ",\"value\":" << counter.value() << "}\n";
  }
  for (const auto& [name, gauge] : metrics->gauges()) {
    out << "{\"kind\":\"gauge\",\"name\":" << json::quote(name)
        << ",\"value\":" << str::fixed(gauge.value(), 6)
        << ",\"max\":" << str::fixed(gauge.max(), 6) << "}\n";
  }
  for (const auto& [name, histogram] : metrics->histograms()) {
    out << "{\"kind\":\"histogram\",\"name\":" << json::quote(name)
        << ",\"count\":" << histogram.count()
        << ",\"sum\":" << str::fixed(histogram.sum(), 6) << ",\"bounds\":[";
    for (std::size_t i = 0; i < histogram.bounds().size(); ++i) {
      if (i != 0) out << ",";
      out << str::fixed(histogram.bounds()[i], 6);
    }
    out << "],\"counts\":[";
    for (std::size_t i = 0; i < histogram.counts().size(); ++i) {
      if (i != 0) out << ",";
      out << histogram.counts()[i];
    }
    out << "]}\n";
  }
}

std::string Tracer::toJsonl(const MetricsRegistry* metrics) const {
  std::ostringstream out;
  writeJsonl(out, metrics);
  return out.str();
}

void Tracer::writeFile(const std::string& path,
                       const MetricsRegistry* metrics) const {
  writeFileAtomic(path, toJsonl(metrics), Durability::kBuffered);
}

ScopedSpan::ScopedSpan(Tracer* tracer, std::string name,
                       Histogram* durationHistogram)
    : tracer_(tracer), hist_(durationHistogram) {
  if (tracer_ != nullptr) id_ = tracer_->beginSpan(std::move(name));
}

ScopedSpan::~ScopedSpan() { end(); }

void ScopedSpan::attr(std::string_view key, std::string_view value) {
  if (tracer_ != nullptr && !ended_) tracer_->setAttrOn(id_, key, value);
}

void ScopedSpan::end() {
  if (tracer_ == nullptr || ended_) return;
  ended_ = true;
  const SpanRecord& record = tracer_->endSpan();
  REBENCH_REQUIRE(record.id == id_);  // scopes must nest
  if (hist_ != nullptr) hist_->observe(record.duration());
}

}  // namespace rebench::obs
