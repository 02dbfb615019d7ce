// Worker-process side of the ahs_server service: the hidden
// `ahs_server --worker --task <file>` mode.  One worker process evaluates
// one task — the points of a job that share a structure — and writes one
// durable result file per point, then exits.
//
// The points are evaluated in order through one ahs::StudyCache, so the
// structure is explored once and the Poisson windows are computed once.
// No warm start fires (StudyOptions::warm_publish stays false), so every
// curve is bitwise equal to a lone ahs::unsafety_curve call for the same
// point: a served curve never depends on the task it travelled in.
//
// The result file IS the wire format (see ahs/sweep.h "durable point-file
// protocol"): snapshot kind "sweep-point" with header
// ahs::point_result_header(point id, point, times, study), payload
// ahs::encode_curve — byte-for-byte the file run_sweep would persist for
// this point.  Crash-safety falls out of util/snapshot's atomic write: a
// worker SIGKILLed mid-task leaves the files of the points it finished and
// none for the rest (the supervisor re-runs only those), and every file
// that exists is complete and identity-checked.  No pipes, no shared
// memory, no partial-state protocol.
#pragma once

#include <string>

namespace serve {

/// Evaluates every point of the WorkerTask serialized in `task_file`
/// (serve/protocol.h) and writes each durable result next to it, replacing
/// any earlier file.  A point that fails (model validation error, solver
/// failure) writes no file, and the points after it are still evaluated.
/// Returns a process exit code: 0 when every point wrote its file, 1 when
/// the task is malformed or any point failed, with the reasons on stderr.
int run_worker(const std::string& task_file);

}  // namespace serve
