#include "serve/worker.h"

#include <chrono>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "serve/protocol.h"
#include "util/json.h"
#include "util/snapshot.h"

namespace serve {

int run_worker(const std::string& task_file) {
  try {
    std::ifstream in(task_file, std::ios::binary);
    if (!in) {
      std::cerr << "worker: cannot read task file " << task_file << "\n";
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const WorkerTask task = decode_task(util::parse_json(buf.str()));

    if (task.debug_delay_seconds > 0.0)
      std::this_thread::sleep_for(
          std::chrono::duration<double>(task.debug_delay_seconds));

    // The directory of the task file is the work dir; each atomic rename
    // in write_snapshot is a point's commit — everything before it is
    // invisible to the supervisor.
    const std::size_t slash = task_file.rfind('/');
    const std::string dir =
        slash == std::string::npos ? "." : task_file.substr(0, slash);
    // A point that throws (validation, solver failure) writes no file and
    // does not stop the rest: the supervisor retries and fails only it.
    // What a failed point left in the cache (its structure, its Poisson
    // windows) is what a successful one would have left, so the later
    // points keep the bits of lone calls.
    ahs::StudyCache cache;
    int status = 0;
    for (std::size_t i = 0; i < task.points.size(); ++i) {
      try {
        const ahs::UnsafetyCurve curve = ahs::unsafety_curve(
            task.points[i].params, task.times, task.study, &cache);
        util::write_snapshot(
            point_result_path(dir, task.point_ids[i]),
            ahs::point_result_header(task.point_ids[i], task.points[i],
                                     task.times, task.study),
            ahs::encode_curve(curve));
      } catch (const std::exception& e) {
        std::cerr << "worker: " << task_file << ": point "
                  << task.points[i].label << ": " << e.what() << "\n";
        status = 1;
      }
    }
    return status;
  } catch (const std::exception& e) {
    std::cerr << "worker: " << task_file << ": " << e.what() << "\n";
    return 1;
  }
}

}  // namespace serve
