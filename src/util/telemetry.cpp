#include "util/telemetry.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "util/error.h"
#include "util/snapshot.h"
#include "util/string_util.h"
#include "util/table.h"

namespace util {

namespace {

void append_histogram(std::ostringstream& os,
                      const MetricsSnapshot::HistogramData& h) {
  os << "{\"bounds\": [";
  for (std::size_t i = 0; i < h.bounds.size(); ++i)
    os << (i ? ", " : "") << json_number(h.bounds[i]);
  os << "], \"counts\": [";
  for (std::size_t i = 0; i < h.counts.size(); ++i)
    os << (i ? ", " : "") << h.counts[i];
  os << "], \"count\": " << h.count << ", \"sum\": " << json_number(h.sum)
     << ", \"p50\": " << json_number(h.percentile(0.50))
     << ", \"p90\": " << json_number(h.percentile(0.90))
     << ", \"p99\": " << json_number(h.percentile(0.99)) << "}";
}

void append_metrics(std::ostringstream& os, const MetricsSnapshot& m) {
  os << "{\"counters\": {";
  bool first = true;
  for (const auto& [name, value] : m.counters) {
    os << (first ? "" : ", ") << '"' << json_escape(name) << "\": " << value;
    first = false;
  }
  os << "}, \"gauges\": {";
  first = true;
  for (const auto& [name, value] : m.gauges) {
    os << (first ? "" : ", ") << '"' << json_escape(name)
       << "\": " << json_number(value);
    first = false;
  }
  os << "}, \"histograms\": {";
  first = true;
  for (const auto& [name, h] : m.histograms) {
    os << (first ? "" : ", ") << '"' << json_escape(name) << "\": ";
    append_histogram(os, h);
    first = false;
  }
  os << "}}";
}

void append_span(std::ostringstream& os, const SpanTree::Snapshot& s) {
  os << "{\"name\": \"" << json_escape(s.name) << "\", \"count\": " << s.count
     << ", \"seconds\": " << json_number(s.seconds) << ", \"children\": [";
  for (std::size_t i = 0; i < s.children.size(); ++i) {
    if (i) os << ", ";
    append_span(os, s.children[i]);
  }
  os << "]}";
}

void render_span(std::ostream& os, const SpanTree::Snapshot& s, int depth) {
  for (int i = 0; i < depth; ++i) os << "  ";
  os << s.name << ": " << format_fixed(s.seconds, 3) << " s";
  if (s.count != 1) os << " (" << s.count << "x)";
  os << "\n";
  for (const auto& c : s.children) render_span(os, c, depth + 1);
}

void append_trace_summary(std::ostringstream& os,
                          const TraceRecorder::Summary& t) {
  os << "{\"threads\": " << t.threads << ", \"recorded\": " << t.recorded
     << ", \"retained\": " << t.retained << ", \"dropped\": " << t.dropped
     << ", \"capacity_per_thread\": " << t.capacity_per_thread << "}";
}

}  // namespace

std::string TelemetryReport::to_json() const {
  std::ostringstream os;
  os << "{\"schema\": \"ahs.telemetry.v1\", \"metrics\": ";
  append_metrics(os, metrics);
  os << ", \"spans\": ";
  append_span(os, spans);
  if (has_trace) {
    os << ", \"trace\": ";
    append_trace_summary(os, trace);
  }
  os << "}\n";
  return os.str();
}

void TelemetryReport::render_summary(std::ostream& os) const {
  os << "--- telemetry: phase spans ---\n";
  render_span(os, spans, 0);
  if (!metrics.counters.empty() || !metrics.gauges.empty()) {
    os << "--- telemetry: metrics ---\n";
    Table table({"metric", "value"});
    for (const auto& [name, value] : metrics.counters)
      table.add_row({name, std::to_string(value)});
    for (const auto& [name, value] : metrics.gauges)
      table.add_row({name, format_sci(value, 4)});
    os << table;
  }
  if (!metrics.histograms.empty()) {
    os << "--- telemetry: histograms ---\n";
    Table table(
        {"histogram", "count", "mean", "p50/p90/p99", "buckets (<=bound: n)"});
    for (const auto& [name, h] : metrics.histograms) {
      std::ostringstream buckets;
      for (std::size_t i = 0; i < h.counts.size(); ++i) {
        if (h.counts[i] == 0) continue;
        if (buckets.tellp() > 0) buckets << " ";
        if (i < h.bounds.size())
          buckets << format_fixed(h.bounds[i], 6) << ":" << h.counts[i];
        else
          buckets << ">" << format_fixed(h.bounds.back(), 6) << ":"
                  << h.counts[i];
      }
      const std::string pcts =
          h.count ? format_sci(h.percentile(0.50), 3) + "/" +
                        format_sci(h.percentile(0.90), 3) + "/" +
                        format_sci(h.percentile(0.99), 3)
                  : "-";
      table.add_row({name, std::to_string(h.count),
                     h.count ? format_sci(h.sum / static_cast<double>(h.count),
                                          3)
                             : "-",
                     pcts, buckets.str()});
    }
    os << table;
  }
  if (has_trace) {
    os << "--- telemetry: flight recorder ---\n"
       << "threads " << trace.threads << ", events recorded " << trace.recorded
       << ", retained " << trace.retained << ", dropped " << trace.dropped
       << " (ring capacity " << trace.capacity_per_thread << "/thread)\n";
  }
}

void TelemetryReport::write_json_file(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  AHS_REQUIRE(out.good(), "cannot open telemetry output file '" + path + "'");
  out << to_json();
}

TelemetrySession::TelemetrySession()
    : prev_registry_(MetricsRegistry::global()), prev_spans_(SpanTree::global()) {
  MetricsRegistry::set_global(&registry_);
  SpanTree::set_global(&spans_);
}

TelemetrySession::~TelemetrySession() {
  MetricsRegistry::set_global(prev_registry_);
  SpanTree::set_global(prev_spans_);
}

TelemetryReport TelemetrySession::report() const {
  TelemetryReport r;
  r.metrics = registry_.snapshot();
  r.spans = spans_.snapshot();
  if (TraceRecorder* rec = TraceRecorder::global()) {
    r.has_trace = true;
    r.trace = rec->summary();
  }
  return r;
}

// ---------------------------------------------------------------------------
// TelemetryTap

namespace {

/// Depth-first search for the first span node with `name`; null if absent.
const SpanTree::Snapshot* find_span(const SpanTree::Snapshot& s,
                                    const std::string& name) {
  if (s.name == name) return &s;
  for (const auto& c : s.children)
    if (const SpanTree::Snapshot* hit = find_span(c, name)) return hit;
  return nullptr;
}

std::uint64_t counter_or_zero(const MetricsSnapshot& m,
                              const std::string& name) {
  const auto it = m.counters.find(name);
  return it == m.counters.end() ? 0 : it->second;
}

}  // namespace

TelemetryTap::TelemetryTap(std::string path, double interval_seconds)
    : path_(std::move(path)),
      interval_seconds_(interval_seconds > 0.0 ? interval_seconds : 1.0),
      start_(std::chrono::steady_clock::now()) {
  write_now();  // a reader attaching early sees a valid (empty) document
  thread_ = std::thread([this] { run(); });
}

TelemetryTap::~TelemetryTap() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  write_now();  // final state, so a tailer sees 100% when the run ends
}

void TelemetryTap::run() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    cv_.wait_for(lock,
                 std::chrono::duration<double>(interval_seconds_),
                 [this] { return stop_; });
    if (stop_) return;
    lock.unlock();
    write_now();
    lock.lock();
  }
}

std::string TelemetryTap::build_document() {
  MetricsSnapshot metrics;
  if (MetricsRegistry* reg = MetricsRegistry::global())
    metrics = reg->snapshot();
  SpanTree::Snapshot spans;
  if (SpanTree* tree = SpanTree::global()) spans = tree->snapshot();

  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  const std::uint64_t wall_unix = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());

  // Sweep progress: "ahs.sweep.points" counts every terminal point
  // (computed, restored, degraded); points_total is a gauge run_sweep sets
  // up front (0 outside a sweep).
  const std::uint64_t done = counter_or_zero(metrics, "ahs.sweep.points");
  std::uint64_t total = 0;
  if (const auto it = metrics.gauges.find("ahs.sweep.points_total");
      it != metrics.gauges.end() && it->second > 0.0)
    total = static_cast<std::uint64_t>(it->second);

  // Per-point ETA from the span tree: mean sweep.point wall time, scaled by
  // the observed parallelism (summed point-seconds per elapsed second).
  double eta = -1.0;
  if (total > done && done > 0) {
    if (const SpanTree::Snapshot* point = find_span(spans, "sweep.point");
        point != nullptr && point->count > 0 && elapsed > 0.0) {
      const double avg =
          point->seconds / static_cast<double>(point->count);
      const double parallelism = std::max(1.0, point->seconds / elapsed);
      eta = static_cast<double>(total - done) * avg / parallelism;
    }
  } else if (total != 0 && done >= total) {
    eta = 0.0;
  }

  std::ostringstream os;
  os << "{\"schema\": \"ahs.telemetry.live.v1\", \"seq\": " << seq_
     << ", \"wall_unix\": " << wall_unix
     << ", \"elapsed_seconds\": " << json_number(elapsed);
  os << ", \"progress\": {\"points_done\": " << done
     << ", \"points_total\": " << total << ", \"percent\": "
     << json_number(total > 0 ? 100.0 * static_cast<double>(done) /
                                    static_cast<double>(total)
                              : 0.0)
     << ", \"eta_seconds\": ";
  if (eta >= 0.0)
    os << json_number(eta);
  else
    os << "null";
  os << "}";
  os << ", \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : metrics.counters) {
    os << (first ? "" : ", ") << '"' << json_escape(name) << "\": " << value;
    first = false;
  }
  os << "}, \"gauges\": {";
  first = true;
  for (const auto& [name, value] : metrics.gauges) {
    os << (first ? "" : ", ") << '"' << json_escape(name)
       << "\": " << json_number(value);
    first = false;
  }
  os << "}, \"histograms\": {";
  first = true;
  for (const auto& [name, h] : metrics.histograms) {
    os << (first ? "" : ", ") << '"' << json_escape(name)
       << "\": {\"count\": " << h.count
       << ", \"p50\": " << json_number(h.percentile(0.50))
       << ", \"p90\": " << json_number(h.percentile(0.90))
       << ", \"p99\": " << json_number(h.percentile(0.99)) << "}";
    first = false;
  }
  os << "}";
  if (TraceRecorder* rec = TraceRecorder::global()) {
    os << ", \"trace\": ";
    append_trace_summary(os, rec->summary());
  }
  os << "}\n";
  return os.str();
}

void TelemetryTap::write_now() {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::string doc = build_document();
  atomic_write_file(path_, doc);
  ++seq_;
}

}  // namespace util
