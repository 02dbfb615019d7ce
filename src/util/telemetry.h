// Run-telemetry session and report: ties a MetricsRegistry and a SpanTree
// together, attaches them as the process-wide defaults, and exports one
// machine-readable JSON document (schema "ahs.telemetry.v1") plus a human
// summary rendering.
//
//   util::TelemetrySession session;          // instrumentation now records
//   ... run the workload ...
//   util::TelemetryReport report = session.report();
//   report.write_json_file("telemetry.json");
//   report.render_summary(std::cout);
//
// The JSON document is deterministic in *structure*: metric keys are sorted,
// span children are sorted by name, and both depend only on which code paths
// executed — not on thread count or scheduling.  Values (counts, seconds)
// naturally differ between runs.
#pragma once

#include <chrono>
#include <condition_variable>
#include <iosfwd>
#include <mutex>
#include <string>
#include <thread>

#include "util/metrics.h"
#include "util/spans.h"
#include "util/trace.h"

namespace util {

struct TelemetryReport {
  MetricsSnapshot metrics;
  SpanTree::Snapshot spans;
  /// Flight-recorder aggregate, folded in when a TraceRecorder was attached
  /// at report() time (additive "trace" field in the JSON document).
  bool has_trace = false;
  TraceRecorder::Summary trace;

  /// The full document: {"schema": "ahs.telemetry.v1", "metrics": {...},
  /// "spans": {...}}.
  std::string to_json() const;

  /// Human rendering: a span-tree outline plus a table of counters/gauges
  /// and histogram summaries.
  void render_summary(std::ostream& os) const;

  void write_json_file(const std::string& path) const;
};

/// RAII: owns a registry + span tree and attaches them as the process-wide
/// defaults for its lifetime (restoring whatever was attached before).
/// Instrumented components resolve the defaults at construction/reset, so
/// create the session before the instrumented objects.
class TelemetrySession {
 public:
  TelemetrySession();
  ~TelemetrySession();

  TelemetrySession(const TelemetrySession&) = delete;
  TelemetrySession& operator=(const TelemetrySession&) = delete;

  MetricsRegistry& registry() { return registry_; }
  SpanTree& spans() { return spans_; }

  TelemetryReport report() const;

 private:
  MetricsRegistry registry_;
  SpanTree spans_;
  MetricsRegistry* prev_registry_;
  SpanTree* prev_spans_;
};

/// Live telemetry publisher: a background thread that periodically snapshots
/// the process-wide registry/span tree/trace recorder and *atomically*
/// replaces a small JSON file (schema "ahs.telemetry.live.v1") with the
/// current state — progress (points done/total, ETA derived from the span
/// tree), every gauge and counter, and compact histogram percentiles.
/// The write is util/snapshot's write-temp + fsync + rename, so a concurrent
/// reader (examples/ahs_top, the future ahs_server) never observes a torn
/// document.  Destroying the tap publishes one final snapshot.
///
/// The tap only *reads* globals; results of the instrumented run are
/// bitwise identical with or without a tap attached.
class TelemetryTap {
 public:
  TelemetryTap(std::string path, double interval_seconds);
  ~TelemetryTap();

  TelemetryTap(const TelemetryTap&) = delete;
  TelemetryTap& operator=(const TelemetryTap&) = delete;

  /// Builds and atomically publishes one snapshot (also what the background
  /// thread does every interval).  Thread-safe.
  void write_now();

  /// The document write_now() would publish (exposed for tests).
  std::string build_document();

 private:
  void run();

  std::string path_;
  double interval_seconds_;
  std::chrono::steady_clock::time_point start_;
  std::mutex mutex_;  ///< serializes write_now() and guards seq_/stop_
  std::condition_variable cv_;
  std::uint64_t seq_ = 0;
  bool stop_ = false;
  std::thread thread_;
};

/// Dead-publisher detection for tap *readers* (examples/ahs_top, the
/// ahs_server progress forwarder): tracks how long the tap's sequence
/// number has failed to advance and trips once the silence exceeds a
/// timeout.  Without this a reader waiting for the terminal snapshot of a
/// producer that died (SIGKILL, OOM) would poll forever — the file stays
/// readable, it just never changes again.
///
/// Time is supplied by the caller in seconds on any monotonic clock, which
/// keeps the gate deterministic under test.
class TapStaleness {
 public:
  /// `timeout_seconds` <= 0 disables the gate (expired() stays false).
  explicit TapStaleness(double timeout_seconds)
      : timeout_seconds_(timeout_seconds) {}

  /// Feed the latest observed sequence number.  Returns the seconds since
  /// the sequence last advanced (0 on an advance or the first call).
  double observe(double seq, double now_seconds) {
    if (!seen_ || seq != last_seq_) {
      seen_ = true;
      last_seq_ = seq;
      last_change_ = now_seconds;
    }
    stale_seconds_ = now_seconds - last_change_;
    return stale_seconds_;
  }

  /// True once the publisher has been silent past the timeout.
  bool expired() const {
    return timeout_seconds_ > 0.0 && seen_ &&
           stale_seconds_ > timeout_seconds_;
  }

  double stale_seconds() const { return stale_seconds_; }

 private:
  double timeout_seconds_;
  bool seen_ = false;
  double last_seq_ = 0.0;
  double last_change_ = 0.0;
  double stale_seconds_ = 0.0;
};

}  // namespace util
