// Shared helpers for the figure-regeneration benches.
//
// Every bench prints (a) the experiment header with the paper reference and
// the parameters in force, (b) a paper-style series table on stdout, and
// (c) a machine-readable CSV (./results/<bench>.csv) for replotting.  The
// sweep drivers also print the sweep's timing summary (log_sweep_timings)
// but keep no timing records: performance is measured by the repository
// benchmark (perfbench/) and gated in CI by .github/perf_gate.py.  Values
// are computed with the lumped-CTMC engine unless the bench says otherwise;
// EXPERIMENTS.md records paper-vs-measured per figure.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "ahs/study.h"
#include "ahs/sweep.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/logging.h"
#include "util/stopflag.h"
#include "util/string_util.h"
#include "util/table.h"
#include "util/telemetry.h"

namespace bench {

/// Run-telemetry for a bench driver: the --metrics-out/--progress/--log-json
/// flags plus the observability taps --trace-out (flight recorder with
/// Perfetto export, docs/OBSERVABILITY.md "Flight recorder") and
/// --tap/--tap-interval (live telemetry snapshot file for ahs_top).
/// parse_bench_flags() registers the flags and starts the session; the
/// driver calls finish_telemetry() once after its workload.  One
/// process-wide instance (telemetry()) keeps the driver wiring to those two
/// calls.
class BenchTelemetry {
 public:
  void add_flags(util::Cli& cli) {
    metrics_out_ = cli.add_string(
        "metrics-out", "",
        "write run telemetry JSON (schema ahs.telemetry.v1) to this file");
    progress_ = cli.add_flag(
        "progress", "print the telemetry summary (span tree, metric tables)");
    log_json_ = cli.add_flag("log-json",
                             "emit log lines as JSON objects (one per line)");
    trace_out_ = cli.add_string(
        "trace-out", "",
        "record a flight-recorder event trace and write it as "
        "Chrome/Perfetto trace-event JSON (schema ahs.trace.v1)");
    tap_path_ = cli.add_string(
        "tap", "",
        "atomically publish a live telemetry snapshot (schema "
        "ahs.telemetry.live.v1) to this file every --tap-interval seconds "
        "(tail it with ahs_top)");
    tap_interval_ = cli.add_double(
        "tap-interval", 1.0, "seconds between --tap snapshots");
  }

  /// Applies the parsed flags: switches the log format and attaches the
  /// process-wide metrics registry + span tree (and, with --trace-out, the
  /// flight recorder; with --tap, the live publisher) when any output was
  /// asked for.  Must run before the instrumented workload starts.
  void start() {
    if (log_json_ && *log_json_) util::set_log_format(util::LogFormat::kJson);
    const bool tracing = trace_out_ && !trace_out_->empty();
    const bool tapping = tap_path_ && !tap_path_->empty();
    if ((metrics_out_ && !metrics_out_->empty()) || (progress_ && *progress_) ||
        tracing || tapping)
      session_ = std::make_unique<util::TelemetrySession>();
    if (tracing) {
      recorder_ = std::make_unique<util::TraceRecorder>();
      util::TraceRecorder::set_global(recorder_.get());
    }
    if (tapping)
      tap_ = std::make_unique<util::TelemetryTap>(*tap_path_, *tap_interval_);
  }

  bool active() const { return session_ != nullptr; }

  /// Emits the requested outputs (summary table, JSON file, trace export,
  /// final tap snapshot).
  void finish() {
    if (!session_) return;
    tap_.reset();  // publishes the terminal snapshot
    const util::TelemetryReport report = session_->report();
    if (*progress_) report.render_summary(std::cout);
    if (!metrics_out_->empty()) {
      report.write_json_file(*metrics_out_);
      std::cout << "telemetry written to " << *metrics_out_ << "\n";
    }
    if (recorder_ != nullptr) {
      recorder_->write_chrome_trace(*trace_out_);
      const util::TraceRecorder::Summary s = recorder_->summary();
      std::cout << "trace written to " << *trace_out_ << " (" << s.retained
                << " events retained, " << s.dropped << " dropped, "
                << s.threads << " threads)\n";
      util::TraceRecorder::set_global(nullptr);
      recorder_.reset();
    }
  }

 private:
  std::shared_ptr<std::string> metrics_out_;
  std::shared_ptr<bool> progress_;
  std::shared_ptr<bool> log_json_;
  std::shared_ptr<std::string> trace_out_;
  std::shared_ptr<std::string> tap_path_;
  std::shared_ptr<double> tap_interval_;
  std::unique_ptr<util::TelemetrySession> session_;
  std::unique_ptr<util::TraceRecorder> recorder_;
  std::unique_ptr<util::TelemetryTap> tap_;
};

/// The driver's telemetry instance (one per process).
inline BenchTelemetry& telemetry() {
  static BenchTelemetry instance;
  return instance;
}

/// Crash-safety for a bench driver: the --checkpoint-dir/--resume flags
/// (docs/ROBUSTNESS.md).  parse_bench_flags() registers the flags and
/// installs the SIGINT/SIGTERM cooperative-stop handlers; each driver
/// applies the flags to its SweepOptions via apply().
class BenchRobustness {
 public:
  void add_flags(util::Cli& cli) {
    dir_ = cli.add_string(
        "checkpoint-dir", "",
        "directory for durable per-point results and in-flight checkpoints "
        "(empty = no persistence)");
    resume_ = cli.add_flag(
        "resume",
        "resume from --checkpoint-dir: completed points are restored "
        "bit-for-bit, in-flight points continue from their checkpoint");
  }

  /// Wires the sweep to the process stop flag and, when --checkpoint-dir
  /// was given, to a per-bench checkpoint subdirectory.
  void apply(ahs::SweepOptions& opts, const std::string& bench_name) const {
    opts.stop = &util::stop_flag();
    if (dir_ && !dir_->empty()) {
      opts.checkpoint_dir = *dir_ + "/" + bench_name;
      opts.resume = resume_ && *resume_;
    }
  }

 private:
  std::shared_ptr<std::string> dir_;
  std::shared_ptr<bool> resume_;
};

/// The driver's robustness flags (one per process).
inline BenchRobustness& robustness() {
  static BenchRobustness instance;
  return instance;
}

/// Call after run_sweep: when the sweep was interrupted (SIGINT/SIGTERM),
/// tells the operator how to finish the run and returns true — the driver
/// should skip its series output and exit 130 (the conventional
/// interrupted-by-signal status).
inline bool interrupted(const ahs::SweepResult& result) {
  if (!result.cancelled) return false;
  std::cout << "\ninterrupted — completed points and in-flight progress are "
               "checkpointed;\nrerun with --checkpoint-dir=<dir> --resume "
               "to finish\n";
  return true;
}

/// Driver epilogue: prints/writes the telemetry outputs if requested.
inline void finish_telemetry() { telemetry().finish(); }

inline void print_header(const std::string& figure,
                         const std::string& what,
                         const std::string& params) {
  std::cout << "==========================================================\n"
            << figure << " — " << what << "\n"
            << "(Hamouda, Kaâniche, Kanoun: \"Safety Modeling and Evaluation"
               " of Automated Highway Systems\", DSN 2009)\n"
            << params << "\n"
            << "==========================================================\n";
}

/// Formats an unsafety value the way the paper's log-scale plots read.
inline std::string fmt(double v) { return util::format_sci(v, 4); }

/// Writes a CSV (header + rows) into ./results/ for external replotting.
inline void write_csv(const std::string& name,
                      const std::vector<std::string>& header,
                      const std::vector<std::vector<std::string>>& rows) {
  std::filesystem::create_directories("results");
  const std::string path = "results/" + name;
  util::CsvWriter csv(path);
  csv.write_row(header);
  for (const auto& r : rows) csv.write_row(r);
  std::cout << "series written to " << path << "\n";
}

/// Parses the flags shared by every bench (--threads plus the telemetry
/// flags --metrics-out/--progress/--log-json) and starts the telemetry
/// session when one was requested.  Returns false when --help was requested
/// — the caller should exit 0.
inline bool parse_bench_flags(int argc, const char* const* argv,
                              const std::string& program, unsigned& threads) {
  util::Cli cli(program, "Regenerates the figure series (sweep engine).");
  const auto t = cli.add_int(
      "threads", 0, "sweep worker threads (0 = all cores, 1 = sequential)");
  telemetry().add_flags(cli);
  robustness().add_flags(cli);
  try {
    if (!cli.parse(argc, argv)) return false;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    std::exit(2);
  }
  threads = *t < 0 ? 0u : static_cast<unsigned>(*t);
  telemetry().start();
  util::install_stop_handlers();
  return true;
}

/// Prints the per-point wall-clock summary of a sweep: total time and
/// throughput, cache hit rates, solver iterations, and one line per point.
inline void log_sweep_timings(unsigned threads,
                              const std::vector<ahs::SweepPoint>& points,
                              const ahs::SweepResult& result) {
  auto secs = [](double s) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6f", s);
    return std::string(buf);
  };

  std::uint64_t replications = 0;
  for (const ahs::UnsafetyCurve& c : result.curves)
    replications += c.replications;
  const double points_per_sec =
      result.total_seconds > 0.0
          ? static_cast<double>(points.size()) / result.total_seconds
          : 0.0;
  const double replications_per_sec =
      result.total_seconds > 0.0
          ? static_cast<double>(replications) / result.total_seconds
          : 0.0;

  std::cout << "\nsweep timing (threads="
            << (threads == 0 ? "all" : std::to_string(threads))
            << "): total " << secs(result.total_seconds) << " s, "
            << util::format_sci(points_per_sec, 3) << " points/s";
  if (replications > 0)
    std::cout << ", " << util::format_sci(replications_per_sec, 3)
              << " replications/s";
  std::cout << "\n";
  if (result.poisson_cache_hits + result.poisson_cache_misses > 0) {
    const double rate =
        static_cast<double>(result.poisson_cache_hits) /
        static_cast<double>(result.poisson_cache_hits +
                            result.poisson_cache_misses);
    std::cout << "poisson window cache: " << result.poisson_cache_hits
              << " hits / " << result.poisson_cache_misses << " misses ("
              << util::format_sci(100.0 * rate, 3) << " % hit rate)\n";
  }
  if (result.warm_start_hits + result.warm_start_misses > 0) {
    const double rate =
        static_cast<double>(result.warm_start_hits) /
        static_cast<double>(result.warm_start_hits +
                            result.warm_start_misses);
    std::cout << "warm-start cache: " << result.warm_start_hits
              << " hits / " << result.warm_start_misses << " misses ("
              << util::format_sci(100.0 * rate, 3) << " % hit rate)\n";
  }
  if (result.total_solver_iterations > 0)
    std::cout << "solver iterations (vector-matrix products): "
              << result.total_solver_iterations << " total, "
              << util::format_sci(
                     static_cast<double>(result.total_solver_iterations) /
                         static_cast<double>(points.size()),
                     3)
              << " per point\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const bool hit = result.structure_cache_hit[i];
    const ahs::PointOutcome outcome = result.outcome[i];
    std::cout << "  " << points[i].label << ": "
              << secs(result.point_seconds[i]) << " s ("
              << (hit ? "structure cache hit" : "cold build");
    if (outcome != ahs::PointOutcome::kComputed)
      std::cout << ", " << ahs::to_string(outcome);
    std::cout << ")\n";
    if (outcome == ahs::PointOutcome::kDegraded)
      std::cout << "    degraded: " << result.degraded_reason[i] << "\n";
  }
}

}  // namespace bench
