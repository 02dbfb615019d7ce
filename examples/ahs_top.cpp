// ahs_top: live sweep monitor.  Tails the telemetry tap file that a bench
// or sweep publishes with --tap (schema ahs.telemetry.live.v1, written
// atomically via write-temp+fsync+rename, so a read never observes a torn
// document) and renders a refreshing progress view: points done/total with
// an ETA, sweep outcome counters, solver milestones, simulation health
// gauges, and the per-point wall-time percentiles.
//
//   bench_fig12 --threads 4 --tap live.json &
//   ahs_top --tap live.json
//
// Exits on its own once the sweep reports completion (done == total) and
// the publisher has stopped bumping the sequence number — or with status 3
// when the sequence stops advancing *before* completion for longer than
// --stale-timeout (the producer died without its terminal snapshot).
// --once renders a single frame and exits (CI smoke); --no-clear appends
// frames instead of redrawing in place (logs, dumb terminals).
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "util/cli.h"
#include "util/json.h"
#include "util/telemetry.h"

namespace {

/// Whole-file slurp; empty optional-style "" means unreadable/absent.
std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string fixed(double v, int digits) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(digits);
  os << v;
  return os.str();
}

std::string progress_bar(double fraction, int width) {
  if (!(fraction >= 0.0)) fraction = 0.0;
  if (fraction > 1.0) fraction = 1.0;
  const int filled = static_cast<int>(std::lround(fraction * width));
  std::string bar(static_cast<std::size_t>(width), '.');
  for (int i = 0; i < filled; ++i) bar[static_cast<std::size_t>(i)] = '#';
  return bar;
}

std::string eta_text(const util::JsonValue* eta) {
  if (eta == nullptr || eta->kind != util::JsonValue::Kind::kNumber)
    return "eta --";
  const double s = eta->number;
  if (s >= 90.0) return "eta ~" + fixed(s / 60.0, 1) + " min";
  return "eta ~" + fixed(s, 1) + " s";
}

double counter_of(const util::JsonValue& doc, std::string_view name) {
  const util::JsonValue* counters = doc.find("counters");
  return counters != nullptr ? counters->number_at(name) : 0.0;
}

bool has_counter(const util::JsonValue& doc, std::string_view name) {
  const util::JsonValue* counters = doc.find("counters");
  return counters != nullptr && counters->find(name) != nullptr;
}

/// One rendered frame.  `stale_seconds` < 0 means freshness is unknown
/// (first frame).
void render(const util::JsonValue& doc, const std::string& path,
            double stale_seconds, std::ostream& os) {
  const double seq = doc.number_at("seq");
  const double elapsed = doc.number_at("elapsed_seconds");
  os << "ahs_top - " << path << "  seq " << fixed(seq, 0) << "  elapsed "
     << fixed(elapsed, 1) << " s";
  if (stale_seconds > 2.0)
    os << "  [no update for " << fixed(stale_seconds, 1) << " s]";
  os << "\n\n";

  if (const util::JsonValue* prog = doc.find("progress")) {
    const double done = prog->number_at("points_done");
    const double total = prog->number_at("points_total");
    const double pct = prog->number_at("percent");
    os << "  sweep    [" << progress_bar(total > 0 ? done / total : 0.0, 32)
       << "]  " << fixed(done, 0) << "/" << fixed(total, 0) << " points ("
       << fixed(pct, 1) << "%)  " << eta_text(prog->find("eta_seconds"))
       << "\n";
  }

  os << "  outcomes restored " << counter_of(doc, "ahs.sweep.points_restored")
     << "  retried " << counter_of(doc, "ahs.sweep.point_retries")
     << "  degraded " << counter_of(doc, "ahs.sweep.points_degraded");
  // Only a tap whose own process ran the sweep carries the structure-cache
  // counters.  A served tap does not: its workers count in their own
  // processes, and "0 hit / 0 miss" there would read as a cold cache.
  const char* hits = "ahs.sweep.structure_cache_hits";
  const char* misses = "ahs.sweep.structure_cache_misses";
  if (has_counter(doc, hits) || has_counter(doc, misses))
    os << "   structure cache " << fixed(counter_of(doc, hits), 0)
       << " hit / " << fixed(counter_of(doc, misses), 0) << " miss";
  os << "\n";

  const double solves = counter_of(doc, "ctmc.uniformization.solves");
  if (solves > 0.0) {
    os << "  solver   solves " << fixed(solves, 0) << "  steady cutoffs "
       << fixed(counter_of(doc, "ctmc.uniformization.steady_cutoffs"), 0)
       << "  QS extrapolations "
       << fixed(counter_of(doc, "ctmc.uniformization.qs_extrapolations"), 0)
       << "  Poisson windows "
       << fixed(counter_of(doc, "ctmc.uniformization.poisson_cache_hits"), 0)
       << " hit / "
       << fixed(counter_of(doc, "ctmc.uniformization.poisson_cache_misses"), 0)
       << " miss\n";
  }

  if (const util::JsonValue* gauges = doc.find("gauges")) {
    if (const util::JsonValue* ess = gauges->find("sim.transient.ess")) {
      os << "  sim      ess " << fixed(ess->as_number(), 1) << "  lr variance "
         << fixed(gauges->number_at("sim.transient.lr_variance"), 4) << "\n";
    }
  }

  if (const util::JsonValue* hists = doc.find("histograms")) {
    if (const util::JsonValue* h = hists->find("ahs.sweep.point_seconds")) {
      os << "  point s  p50 " << fixed(h->number_at("p50"), 3) << "  p90 "
         << fixed(h->number_at("p90"), 3) << "  p99 "
         << fixed(h->number_at("p99"), 3) << "  (n=" << h->number_at("count")
         << ")\n";
    }
  }

  if (const util::JsonValue* trace = doc.find("trace")) {
    os << "  trace    " << fixed(trace->number_at("threads"), 0)
       << " threads, " << fixed(trace->number_at("retained"), 0)
       << " events retained, " << fixed(trace->number_at("dropped"), 0)
       << " dropped\n";
  }
  os.flush();
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("ahs_top",
                "Live sweep monitor: tails a --tap telemetry file "
                "(schema ahs.telemetry.live.v1) with a refreshing "
                "progress view.");
  const auto tap = cli.add_string("tap", "telemetry_live.json",
                                  "tap file published by a bench/sweep --tap");
  const auto interval =
      cli.add_double("interval", 0.5, "seconds between refreshes");
  const auto once = cli.add_flag(
      "once", "render a single frame from the current tap contents and exit "
              "(fails if the file is absent or unparseable)");
  const auto max_frames = cli.add_int(
      "max-frames", 0, "stop after this many rendered frames (0 = unlimited)");
  const auto no_clear = cli.add_flag(
      "no-clear", "append frames instead of redrawing in place");
  const auto stale_timeout = cli.add_double(
      "stale-timeout", 30.0,
      "exit nonzero when the tap sequence number stops advancing for this "
      "many seconds before the sweep completes — the producer died without "
      "its terminal snapshot (0 disables)");
  try {
    if (!cli.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  using Clock = std::chrono::steady_clock;
  const Clock::time_point t0 = Clock::now();
  util::TapStaleness staleness(*stale_timeout);
  long long frames = 0;
  bool seen_complete = false;

  for (;;) {
    const std::string text = read_file(*tap);
    if (text.empty()) {
      if (*once) {
        std::cerr << "ahs_top: cannot read " << *tap << "\n";
        return 1;
      }
      std::this_thread::sleep_for(
          std::chrono::duration<double>(*interval));
      continue;
    }

    util::JsonValue doc;
    try {
      doc = util::parse_json(text);
    } catch (const std::exception& e) {
      // Atomic rename means this should never trigger; tolerate it anyway
      // (a publisher using plain writes, a truncated copy).
      if (*once) {
        std::cerr << "ahs_top: " << *tap << ": " << e.what() << "\n";
        return 1;
      }
      std::this_thread::sleep_for(
          std::chrono::duration<double>(*interval));
      continue;
    }
    if (doc.string_at("schema") != "ahs.telemetry.live.v1") {
      std::cerr << "ahs_top: " << *tap << " is not an ahs.telemetry.live.v1 "
                << "document (schema \"" << doc.string_at("schema") << "\")\n";
      return 1;
    }

    const double seq = doc.number_at("seq");
    const double stale = staleness.observe(
        seq, std::chrono::duration<double>(Clock::now() - t0).count());

    std::ostringstream frame;
    render(doc, *tap, *once ? -1.0 : stale, frame);
    if (!*no_clear && !*once && frames > 0)
      std::cout << "\x1b[2J\x1b[H";  // clear + home: redraw in place
    std::cout << frame.str();
    if (*no_clear || *once) std::cout << "\n";
    ++frames;

    const util::JsonValue* prog = doc.find("progress");
    const double done = prog != nullptr ? prog->number_at("points_done") : 0.0;
    const double total =
        prog != nullptr ? prog->number_at("points_total") : 0.0;
    if (total > 0.0 && done >= total) seen_complete = true;

    if (*once) return 0;
    if (*max_frames > 0 && frames >= *max_frames) return 0;
    // The publisher's destructor writes one final snapshot; once the sweep
    // is complete and no new snapshot has landed for a couple of refresh
    // periods, the run is over.
    if (seen_complete && stale > 2.0 * *interval) return 0;
    // The inverse case: the sweep is *not* complete and the producer has
    // gone silent — it died (SIGKILL, OOM) before its terminal snapshot.
    // Without this gate ahs_top would poll the frozen file forever.
    if (!seen_complete && staleness.expired()) {
      std::cerr << "ahs_top: " << *tap << " stopped updating "
                << fixed(stale, 1) << " s ago with the sweep incomplete — "
                << "producer appears dead (--stale-timeout "
                << fixed(*stale_timeout, 1) << ")\n";
      return 3;
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(*interval));
  }
}
