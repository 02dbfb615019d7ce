// Test helper for the executor suite: records every completion an executor
// fires, as (time, activity, case), through its on_fire hook.  Unrelated to
// the flight recorder util::TraceRecorder (src/util/trace.h).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "san/flat_model.h"
#include "sim/executor.h"

namespace sim_test {

struct FireEvent {
  double time;
  std::size_t activity_index;  ///< index into FlatModel::activities()
  std::size_t case_index;
};

/// Attaches to an executor's on_fire hook and accumulates its completions.
class FireTrace {
 public:
  FireTrace(sim::Executor& exec, const san::FlatModel& model)
      : model_(model) {
    exec.on_fire = [this, &exec](std::size_t ai, std::size_t ci) {
      events_.push_back({exec.time(), ai, ci});
    };
  }
  // The executor's hook holds this object's address.
  FireTrace(const FireTrace&) = delete;
  FireTrace& operator=(const FireTrace&) = delete;

  const std::vector<FireEvent>& events() const { return events_; }

  /// Number of recorded completions of activities with this source
  /// (atomic-model) name.
  std::size_t count_source(const std::string& source_name) const {
    std::size_t n = 0;
    for (const FireEvent& e : events_)
      if (model_.activities()[e.activity_index].source_name == source_name)
        ++n;
    return n;
  }

 private:
  const san::FlatModel& model_;
  std::vector<FireEvent> events_;
};

}  // namespace sim_test
