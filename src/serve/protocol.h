// Wire protocol of the ahs_server evaluation service: newline-delimited
// JSON over a Unix-domain socket (util/socket.h), parsed with the strict
// util/json reader.  One request line in, one response line out per
// operation; progress is NOT streamed on the socket — the server publishes
// a standard `ahs.telemetry.live.v1` tap file that examples/ahs_top tails
// unmodified.
//
// Requests ({"op": ...}):
//   ping                      → {"ok":true,"op":"ping"}
//   submit                    → evaluates a batch of sweep points; blocks
//     {"op":"submit","client":"alice","times":[...],
//      "study":{...},"points":[{"label":...,"params":{...}},...]}
//     → {"ok":true,"job":<id>,"results":[{"label":...,"outcome":...,
//        "from_cache":bool,"curve":{...}},...]}
//   stats                     → scheduler/store/worker observability, incl.
//                               the live worker pids (the kill tests aim
//                               SIGKILL with these)
//   shutdown                  → stops the server after the reply
//
// Doubles travel as JSON numbers rendered by util::json_number (shortest
// round-trip), so a curve is bit-identical after encode→parse→decode:
// serving a result is never a source of drift versus computing it locally.
//
// The serialization of Parameters/StudyOptions here covers exactly the
// result-determining fields that ahs::point_identity_hash folds — the
// cross-request ResultStore merges on that hash, so a field the protocol
// dropped would let two *different* requests collide.  Keep them in sync.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ahs/study.h"
#include "ahs/sweep.h"
#include "util/json.h"

namespace serve {

// ---- building blocks ---------------------------------------------------

/// {"max_per_platoon":..., ...} — every value field of Parameters.
std::string encode_params(const ahs::Parameters& p);
ahs::Parameters decode_params(const util::JsonValue& v);

/// {"engine":"lumped-ctmc","solver":"adaptive","seed":42,...} — the
/// result-determining StudyOptions subset (pointers and robustness wiring
/// are per-process and never travel).
std::string encode_study(const ahs::StudyOptions& s);
ahs::StudyOptions decode_study(const util::JsonValue& v);

std::string encode_curve_json(const ahs::UnsafetyCurve& c);
ahs::UnsafetyCurve decode_curve_json(const util::JsonValue& v);

// ---- requests ----------------------------------------------------------

struct SubmitRequest {
  std::string client;  ///< fair-share identity; "" reads as "anonymous"
  std::vector<ahs::SweepPoint> points;
  std::vector<double> times;
  ahs::StudyOptions study;
};

std::string encode_submit(const SubmitRequest& req);
SubmitRequest decode_submit(const util::JsonValue& v);

// ---- worker task files -------------------------------------------------

/// The unit a worker process evaluates: the points of one job that share a
/// structure (ahs::StudyCache::key), or one simulation point.  Serialized
/// into `<work_dir>/task_<task_id>.task`; the worker evaluates the points in
/// order through one ahs::StudyCache and answers each with
/// `<work_dir>/point_<point id>.result` — exactly the durable file run_sweep
/// writes (header ahs::point_result_header keyed on the point id), so a
/// SIGKILLed worker is restartable for free: each result file either
/// exists complete (atomic rename) or not at all.
struct WorkerTask {
  std::uint64_t task_id = 0;
  std::vector<ahs::SweepPoint> points;
  std::vector<std::uint64_t> point_ids;  ///< one per point
  std::vector<double> times;
  ahs::StudyOptions study;
  /// Test knob: seconds the worker sleeps *before* solving, giving the
  /// kill tests a deterministic window to SIGKILL a live worker mid-task.
  double debug_delay_seconds = 0.0;
};

std::string encode_task(const WorkerTask& t);
WorkerTask decode_task(const util::JsonValue& v);

/// `<dir>/task_<task_id>.task` and `<dir>/point_<point_id>.result` — the
/// naming contract between supervisor and worker.
std::string task_path(const std::string& dir, std::uint64_t task_id);
std::string point_result_path(const std::string& dir, std::uint64_t point_id);

}  // namespace serve
