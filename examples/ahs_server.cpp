// ahs_server: the sweep-as-a-service daemon.  Accepts study/sweep requests
// as JSON over a Unix-domain socket, groups their points by structure into
// tasks, queues the tasks behind a pluggable schedule policy, and evaluates
// each in a supervised worker *process* speaking the durable point-file
// protocol — a SIGKILLed worker is simply respawned for its unfinished
// points and the sweep completes with bitwise-identical results.
//
//   ahs_server --socket /tmp/ahs.sock --workers 4 --policy fair --tap live.json &
//   ahs_client --socket /tmp/ahs.sock --sizes 10,12 --lambdas 1e-6,1e-5
//   ahs_top    --tap live.json          # watches the server, unmodified
//
// The same binary is its own worker: the supervisor re-execs it as
// `ahs_server --worker --task <file>` (a hidden mode handled before flag
// parsing).  See docs/SERVICE.md for the protocol and operations guide.
#include <csignal>
#include <iostream>
#include <string>

#include "serve/server.h"
#include "serve/worker.h"
#include "util/cli.h"

namespace {

serve::Server* g_server = nullptr;

void handle_signal(int) {
  if (g_server != nullptr) g_server->shutdown();
}

}  // namespace

int main(int argc, char** argv) {
  // Worker mode first: the argv contract with serve::WorkerSupervisor, kept
  // outside the Cli so future flag changes cannot break running servers.
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--worker") {
      std::string task;
      for (int j = 1; j + 1 < argc; ++j)
        if (std::string(argv[j]) == "--task") task = argv[j + 1];
      if (task.empty()) {
        std::cerr << "ahs_server: --worker requires --task <file>\n";
        return 2;
      }
      return serve::run_worker(task);
    }
  }

  util::Cli cli("ahs_server",
                "Evaluation daemon: sweep points as a service over a Unix "
                "socket, computed by crash-safe worker processes.");
  auto socket =
      cli.add_string("socket", "ahs_server.sock", "Unix socket path to serve");
  auto work_dir = cli.add_string("work-dir", "ahs_server_work",
                                 "directory for task/result files");
  auto workers = cli.add_int("workers", 2, "concurrent worker processes");
  auto policy = cli.add_string("policy", "fifo",
                               "schedule policy: fifo | sjf | fair");
  auto tap = cli.add_string(
      "tap", "", "live telemetry tap file (ahs_top-compatible; \"\" = off)");
  auto tap_interval =
      cli.add_double("tap-interval", 0.5, "tap publish period in seconds");
  auto max_attempts =
      cli.add_int("max-attempts", 3, "worker spawn attempts per task");
  auto debug_delay = cli.add_double(
      "debug-worker-delay", 0.0,
      "test knob: seconds each worker sleeps before solving");

  try {
    if (!cli.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::cerr << "ahs_server: " << e.what() << "\n";
    return 2;
  }

  serve::ServerOptions opts;
  opts.socket_path = *socket;
  opts.work_dir = *work_dir;
  opts.max_workers = static_cast<int>(*workers);
  opts.policy = *policy;
  opts.tap_path = *tap;
  opts.tap_interval_seconds = *tap_interval;
  opts.max_attempts = static_cast<int>(*max_attempts);
  opts.debug_worker_delay_seconds = *debug_delay;

  try {
    serve::Server server(opts);
    g_server = &server;
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    server.run();
    g_server = nullptr;
  } catch (const std::exception& e) {
    std::cerr << "ahs_server: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
