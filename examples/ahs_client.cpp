// ahs_client: command-line client of the ahs_server daemon.  Builds a
// fig12-style parameter grid (platoon sizes × base failure rates), submits
// it over the Unix socket, and writes the returned curves as CSV.
//
//   ahs_client --socket /tmp/ahs.sock --sizes 10,12,14 --lambdas 1e-6,1e-5
//   ahs_client --socket /tmp/ahs.sock --op stats
//   ahs_client --socket /tmp/ahs.sock --op shutdown
//
// --serial evaluates the identical grid locally — one cold, direct
// ahs::unsafety_curve() call per point — and writes the same CSV format
// through the same formatting code.  The served CSV is byte-identical to
// the serial one (curve doubles travel as shortest round-trip JSON
// numbers), which is how the crash tests prove a SIGKILLed-and-retried
// worker changes nothing, and how they hold the structure-cache hits of a
// worker's grouped points to their cold curves.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "ahs/study.h"
#include "ahs/sweep.h"
#include "serve/protocol.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/json.h"
#include "util/socket.h"
#include "util/string_util.h"

namespace {

std::vector<double> parse_list(const std::string& csv) {
  std::vector<double> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ','))
    if (!item.empty()) out.push_back(util::parse_double(item));
  return out;
}

ctmc::TransientSolver parse_solver(const std::string& s) {
  if (s == "standard") return ctmc::TransientSolver::kStandard;
  if (s == "adaptive") return ctmc::TransientSolver::kAdaptive;
  if (s == "krylov") return ctmc::TransientSolver::kKrylov;
  throw util::PreconditionError("unknown solver \"" + s +
                                "\" (standard | adaptive | krylov)");
}

/// One CSV row per (point, time).  Shared verbatim by the served and
/// --serial paths — bitwise CSV identity depends on that.
void append_rows(std::ostream& os, const std::string& label,
                 const ahs::UnsafetyCurve& curve, const std::string& outcome) {
  for (std::size_t k = 0; k < curve.times.size(); ++k) {
    const double hw = k < curve.half_width.size() ? curve.half_width[k] : 0.0;
    os << label << "," << util::json_number(curve.times[k]) << ","
       << util::json_number(curve.unsafety[k]) << "," << util::json_number(hw)
       << "," << curve.replications << "," << (curve.converged ? 1 : 0) << ","
       << outcome << "\n";
  }
}

/// Sends one request line and reads the one reply line.
std::string roundtrip(const std::string& socket_path,
                      const std::string& request) {
  util::Socket s = util::Socket::connect_unix(socket_path);
  if (!s.send_line(request))
    throw util::IoError("server closed the connection before the request");
  std::string reply;
  if (!s.recv_line(&reply))
    throw util::IoError("server closed the connection without a reply");
  return reply;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("ahs_client",
                "Submit a fig12-style sweep grid to an ahs_server daemon "
                "and collect the curves as CSV.");
  auto socket =
      cli.add_string("socket", "ahs_server.sock", "server Unix socket path");
  auto op = cli.add_string("op", "submit",
                           "operation: submit | ping | stats | shutdown");
  auto client_name =
      cli.add_string("client", "ahs_client", "fair-share client identity");
  auto sizes =
      cli.add_string("sizes", "10,12,14,16,18", "platoon sizes (comma list)");
  auto lambdas = cli.add_string("lambdas", "1e-6,1e-5,1e-4",
                                "base failure rates /h (comma list)");
  auto times = cli.add_string("times", "6.0", "mission times in hours");
  auto engine = cli.add_string(
      "engine", "lumped-ctmc",
      "lumped-ctmc | simulation | simulation-is | full-ctmc");
  auto solver =
      cli.add_string("solver", "adaptive", "standard | adaptive | krylov");
  auto seed = cli.add_int("seed", 42, "simulation seed");
  auto out = cli.add_string("out", "ahs_client.csv", "CSV output path");
  auto serial = cli.add_flag(
      "serial", "evaluate the grid locally (bitwise-diff baseline)");

  try {
    if (!cli.parse(argc, argv)) return 0;

    // The non-submit ops are one JSON line each; print the raw reply (the
    // stats document carries the live worker pids the kill tests target).
    if (*op != "submit") {
      if (*op != "ping" && *op != "stats" && *op != "shutdown")
        throw util::PreconditionError("unknown op \"" + *op + "\"");
      const std::string reply =
          roundtrip(*socket, "{\"op\":\"" + *op + "\"}");
      std::cout << reply << "\n";
      const util::JsonValue doc = util::parse_json(reply);
      const util::JsonValue* ok = doc.find("ok");
      return ok != nullptr && ok->as_bool() ? 0 : 1;
    }

    // The fig12 fixture: join 12/h, leave 4/h, DD strategy, n × λ grid.
    ahs::Parameters base;
    base.join_rate = 12.0;
    base.leave_rate = 4.0;
    const ahs::GridAxis n_axis{"n", parse_list(*sizes),
                               [](ahs::Parameters& p, double v) {
                                 p.max_per_platoon = static_cast<int>(v);
                               }};
    const ahs::GridAxis lambda_axis{
        "lambda", parse_list(*lambdas),
        [](ahs::Parameters& p, double v) { p.base_failure_rate = v; }};

    serve::SubmitRequest req;
    req.client = *client_name;
    req.points = ahs::make_grid(base, n_axis, lambda_axis);
    req.times = parse_list(*times);
    req.study.engine = ahs::parse_engine(*engine);
    req.study.solver = parse_solver(*solver);
    req.study.seed = static_cast<std::uint64_t>(*seed);
    AHS_REQUIRE(!req.points.empty(), "empty grid");
    AHS_REQUIRE(!req.times.empty(), "empty time list");

    std::ostringstream csv;
    csv << "label,t_hours,unsafety,half_width,replications,converged,outcome\n";
    std::size_t computed = 0, cached = 0, failed = 0;

    if (*serial) {
      // Local baseline: per-point cold study calls.  A server worker runs
      // the same call through a StudyCache shared by its task's points
      // (serve/worker.cpp); a cache hit reproduces the cold curve, so the
      // CSVs must match.
      for (const ahs::SweepPoint& point : req.points) {
        const ahs::UnsafetyCurve curve =
            ahs::unsafety_curve(point.params, req.times, req.study);
        append_rows(csv, point.label, curve, "computed");
        ++computed;
      }
    } else {
      const std::string reply =
          roundtrip(*socket, serve::encode_submit(req));
      const util::JsonValue doc = util::parse_json(reply);
      const util::JsonValue* ok = doc.find("ok");
      if (ok == nullptr || !ok->as_bool())
        throw util::IoError("submit failed: " + doc.string_at("error", reply));
      const util::JsonValue* results = doc.find("results");
      AHS_ASSERT(results != nullptr &&
                     results->array.size() == req.points.size(),
                 "reply result count mismatch");
      for (std::size_t i = 0; i < results->array.size(); ++i) {
        const util::JsonValue& r = results->array[i];
        const std::string outcome = r.string_at("outcome");
        if (outcome == "failed") {
          std::cerr << "ahs_client: point " << r.string_at("label")
                    << " failed: " << r.string_at("error") << "\n";
          ++failed;
          continue;
        }
        outcome == "cached" ? ++cached : ++computed;
        const util::JsonValue* curve = r.find("curve");
        AHS_ASSERT(curve != nullptr, "ok result without a curve");
        append_rows(csv, r.string_at("label"),
                    serve::decode_curve_json(*curve), outcome);
      }
    }

    std::ofstream file(*out, std::ios::binary | std::ios::trunc);
    AHS_REQUIRE(static_cast<bool>(file), "cannot write " + *out);
    file << csv.str();
    file.close();

    std::cout << "ahs_client: " << req.points.size() << " point(s) — "
              << computed << " computed, " << cached << " cached, " << failed
              << " failed → " << *out << "\n";
    return failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "ahs_client: " << e.what() << "\n";
    return 2;
  }
}
