#include "serve/schedule.h"

#include <algorithm>
#include <limits>

#include "util/error.h"

namespace serve {

namespace {

class FifoPolicy final : public SchedulePolicy {
 public:
  const char* name() const override { return "fifo"; }
  std::size_t pick(const std::vector<PendingTask>& pending,
                   const std::map<std::string, std::uint64_t>&) override {
    std::size_t best = 0;
    for (std::size_t i = 1; i < pending.size(); ++i)
      if (pending[i].enqueue_order < pending[best].enqueue_order) best = i;
    return best;
  }
};

class ShortestFirstPolicy final : public SchedulePolicy {
 public:
  const char* name() const override { return "sjf"; }
  std::size_t pick(const std::vector<PendingTask>& pending,
                   const std::map<std::string, std::uint64_t>&) override {
    // Unknown costs (<= 0) sort *after* every known cost: a task we know
    // to be short should not wait behind a mystery, and mysteries keep
    // their arrival order among themselves.
    const auto key = [](const PendingTask& p) {
      return p.expected_seconds > 0.0
                 ? p.expected_seconds
                 : std::numeric_limits<double>::infinity();
    };
    std::size_t best = 0;
    for (std::size_t i = 1; i < pending.size(); ++i) {
      const double a = key(pending[i]), b = key(pending[best]);
      if (a < b || (a == b &&
                    pending[i].enqueue_order < pending[best].enqueue_order))
        best = i;
    }
    return best;
  }
};

class FairSharePolicy final : public SchedulePolicy {
 public:
  const char* name() const override { return "fair"; }
  std::size_t pick(const std::vector<PendingTask>& pending,
                   const std::map<std::string, std::uint64_t>& dispatched)
      override {
    const auto share = [&dispatched](const PendingTask& p) {
      const auto it = dispatched.find(p.client);
      return it != dispatched.end() ? it->second : std::uint64_t{0};
    };
    std::size_t best = 0;
    for (std::size_t i = 1; i < pending.size(); ++i) {
      const std::uint64_t a = share(pending[i]), b = share(pending[best]);
      if (a < b || (a == b &&
                    pending[i].enqueue_order < pending[best].enqueue_order))
        best = i;
    }
    return best;
  }
};

}  // namespace

std::unique_ptr<SchedulePolicy> make_policy(const std::string& name) {
  if (name == "fifo") return std::make_unique<FifoPolicy>();
  if (name == "sjf") return std::make_unique<ShortestFirstPolicy>();
  if (name == "fair") return std::make_unique<FairSharePolicy>();
  throw util::PreconditionError("unknown schedule policy \"" + name +
                                "\" (expected fifo, sjf, or fair)");
}

Scheduler::Scheduler(std::unique_ptr<SchedulePolicy> policy)
    : policy_(std::move(policy)) {
  AHS_REQUIRE(policy_ != nullptr, "Scheduler needs a policy");
  stats_.policy = policy_->name();
}

void Scheduler::enqueue(PendingTask task, double now_seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  task.enqueue_order = next_order_++;
  task.enqueue_seconds = now_seconds;
  if (stats_.first_enqueue_seconds < 0.0)
    stats_.first_enqueue_seconds = now_seconds;
  stats_.enqueued += task.points();
  pending_.push_back(std::move(task));
}

bool Scheduler::pop(PendingTask* out, double now_seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (pending_.empty()) return false;
  const std::size_t i = policy_->pick(pending_, dispatched_by_client_);
  AHS_ASSERT(i < pending_.size(), "policy picked out of range");
  *out = std::move(pending_[i]);
  pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
  const std::size_t points = out->points();
  dispatched_by_client_[out->client] += points;
  const double wait = now_seconds - out->enqueue_seconds;
  stats_.dispatched += points;
  stats_.total_wait_seconds += wait * static_cast<double>(points);
  stats_.max_wait_seconds = std::max(stats_.max_wait_seconds, wait);
  stats_.last_dispatch_seconds = now_seconds;
  return true;
}

std::size_t Scheduler::depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t points = 0;
  for (const PendingTask& t : pending_) points += t.points();
  return points;
}

Scheduler::Stats Scheduler::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace serve
