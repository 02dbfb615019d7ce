#include "serve/protocol.h"

#include <sstream>

#include "util/error.h"
#include "util/string_util.h"

namespace serve {

namespace {

void emit_doubles(std::ostringstream& os, const char* key,
                  const double* v, std::size_t n) {
  os << "\"" << key << "\":[";
  for (std::size_t i = 0; i < n; ++i)
    os << (i != 0 ? "," : "") << util::json_number(v[i]);
  os << "]";
}

void emit_bools(std::ostringstream& os, const char* key, const bool* v,
                std::size_t n) {
  os << "\"" << key << "\":[";
  for (std::size_t i = 0; i < n; ++i)
    os << (i != 0 ? "," : "") << (v[i] ? "true" : "false");
  os << "]";
}

std::vector<double> doubles_at(const util::JsonValue& v,
                               std::string_view key) {
  std::vector<double> out;
  if (const util::JsonValue* a = v.find(key))
    for (const util::JsonValue& x : a->array) out.push_back(x.as_number());
  return out;
}

template <std::size_t N>
void fill_doubles(const util::JsonValue& v, std::string_view key,
                  std::array<double, N>* out) {
  const std::vector<double> xs = doubles_at(v, key);
  AHS_REQUIRE(xs.empty() || xs.size() == N,
              std::string(key) + " must have " + std::to_string(N) +
                  " entries");
  for (std::size_t i = 0; i < xs.size(); ++i) (*out)[i] = xs[i];
}

ctmc::TransientSolver parse_solver(const std::string& s) {
  if (s == "standard") return ctmc::TransientSolver::kStandard;
  if (s == "adaptive") return ctmc::TransientSolver::kAdaptive;
  if (s == "krylov") return ctmc::TransientSolver::kKrylov;
  throw util::PreconditionError("unknown transient solver \"" + s + "\"");
}

/// `"label":...,"params":{...}` — the members a point object carries in a
/// submit request and in a task file.
void emit_point(std::ostringstream& os, const ahs::SweepPoint& point) {
  os << "\"label\":\"" << util::json_escape(point.label)
     << "\",\"params\":" << encode_params(point.params);
}

ahs::SweepPoint decode_point(const util::JsonValue& v) {
  ahs::SweepPoint sp;
  sp.label = v.string_at("label", "");
  if (const util::JsonValue* p = v.find("params"))
    sp.params = decode_params(*p);
  return sp;
}

const util::JsonValue& points_at(const util::JsonValue& v, const char* what) {
  const util::JsonValue* pts = v.find("points");
  AHS_REQUIRE(pts != nullptr && !pts->array.empty(),
              std::string(what) + " needs a non-empty points array");
  return *pts;
}

}  // namespace

std::string encode_params(const ahs::Parameters& p) {
  std::ostringstream os;
  os << "{\"max_per_platoon\":" << p.max_per_platoon
     << ",\"num_platoons\":" << p.num_platoons
     << ",\"base_failure_rate\":" << util::json_number(p.base_failure_rate)
     << ",";
  emit_doubles(os, "rate_multipliers", p.rate_multipliers.data(),
               p.rate_multipliers.size());
  os << ",";
  emit_bools(os, "failure_mode_enabled", p.failure_mode_enabled.data(),
             p.failure_mode_enabled.size());
  os << ",";
  emit_doubles(os, "maneuver_rates", p.maneuver_rates.data(),
               p.maneuver_rates.size());
  os << ",\"maneuver_time_model\":"
     << static_cast<int>(p.maneuver_time_model)
     << ",\"join_rate\":" << util::json_number(p.join_rate)
     << ",\"leave_rate\":" << util::json_number(p.leave_rate)
     << ",\"change_rate\":" << util::json_number(p.change_rate)
     << ",\"transit_rate\":" << util::json_number(p.transit_rate)
     << ",\"q_intrinsic\":" << util::json_number(p.q_intrinsic)
     << ",\"max_transit\":" << p.max_transit << ",\"strategy\":\""
     << ahs::to_string(p.strategy) << "\",\"adjacency_radius\":"
     << p.adjacency_radius << "}";
  return os.str();
}

ahs::Parameters decode_params(const util::JsonValue& v) {
  ahs::Parameters p;  // absent fields keep the §4.1 defaults
  p.max_per_platoon =
      static_cast<int>(v.number_at("max_per_platoon", p.max_per_platoon));
  p.num_platoons =
      static_cast<int>(v.number_at("num_platoons", p.num_platoons));
  p.base_failure_rate =
      v.number_at("base_failure_rate", p.base_failure_rate);
  fill_doubles(v, "rate_multipliers", &p.rate_multipliers);
  if (const util::JsonValue* e = v.find("failure_mode_enabled")) {
    AHS_REQUIRE(e->array.size() == p.failure_mode_enabled.size(),
                "failure_mode_enabled must have " +
                    std::to_string(p.failure_mode_enabled.size()) +
                    " entries");
    for (std::size_t i = 0; i < e->array.size(); ++i)
      p.failure_mode_enabled[i] = e->array[i].as_bool();
  }
  fill_doubles(v, "maneuver_rates", &p.maneuver_rates);
  p.maneuver_time_model = static_cast<ahs::ManeuverTimeModel>(
      static_cast<int>(v.number_at(
          "maneuver_time_model", static_cast<int>(p.maneuver_time_model))));
  p.join_rate = v.number_at("join_rate", p.join_rate);
  p.leave_rate = v.number_at("leave_rate", p.leave_rate);
  p.change_rate = v.number_at("change_rate", p.change_rate);
  p.transit_rate = v.number_at("transit_rate", p.transit_rate);
  p.q_intrinsic = v.number_at("q_intrinsic", p.q_intrinsic);
  p.max_transit = static_cast<int>(v.number_at("max_transit", p.max_transit));
  if (const util::JsonValue* s = v.find("strategy"))
    p.strategy = ahs::parse_strategy(s->as_string("DD"));
  p.adjacency_radius = static_cast<int>(
      v.number_at("adjacency_radius", p.adjacency_radius));
  return p;
}

std::string encode_study(const ahs::StudyOptions& s) {
  std::ostringstream os;
  os << "{\"engine\":\"" << ahs::to_string(s.engine) << "\",\"solver\":\""
     << ctmc::to_string(s.solver) << "\",\"seed\":" << s.seed
     << ",\"min_replications\":" << s.min_replications
     << ",\"max_replications\":" << s.max_replications
     << ",\"rel_half_width\":" << util::json_number(s.rel_half_width)
     << ",\"abs_half_width\":" << util::json_number(s.abs_half_width)
     << ",\"confidence\":" << util::json_number(s.confidence)
     << ",\"failure_boost\":" << util::json_number(s.failure_boost)
     << ",\"fail_case_bias\":" << util::json_number(s.fail_case_bias)
     << ",\"max_states\":" << s.max_states << "}";
  return os.str();
}

ahs::StudyOptions decode_study(const util::JsonValue& v) {
  ahs::StudyOptions s;
  if (const util::JsonValue* e = v.find("engine"))
    s.engine = ahs::parse_engine(e->as_string("lumped-ctmc"));
  if (const util::JsonValue* sv = v.find("solver"))
    s.solver = parse_solver(sv->as_string("adaptive"));
  s.seed = static_cast<std::uint64_t>(v.number_at("seed", s.seed));
  s.min_replications = static_cast<std::uint64_t>(
      v.number_at("min_replications", s.min_replications));
  s.max_replications = static_cast<std::uint64_t>(
      v.number_at("max_replications", s.max_replications));
  s.rel_half_width = v.number_at("rel_half_width", s.rel_half_width);
  s.abs_half_width = v.number_at("abs_half_width", s.abs_half_width);
  s.confidence = v.number_at("confidence", s.confidence);
  s.failure_boost = v.number_at("failure_boost", s.failure_boost);
  s.fail_case_bias = v.number_at("fail_case_bias", s.fail_case_bias);
  s.max_states =
      static_cast<std::size_t>(v.number_at("max_states", s.max_states));
  return s;
}

std::string encode_curve_json(const ahs::UnsafetyCurve& c) {
  std::ostringstream os;
  os << "{";
  emit_doubles(os, "times", c.times.data(), c.times.size());
  os << ",";
  emit_doubles(os, "unsafety", c.unsafety.data(), c.unsafety.size());
  os << ",";
  emit_doubles(os, "half_width", c.half_width.data(), c.half_width.size());
  os << ",\"replications\":" << c.replications
     << ",\"solver_iterations\":" << c.solver_iterations
     << ",\"converged\":" << (c.converged ? "true" : "false")
     << ",\"cancelled\":" << (c.cancelled ? "true" : "false")
     << ",\"timed_out\":" << (c.timed_out ? "true" : "false")
     << ",\"resumed\":" << (c.resumed ? "true" : "false") << "}";
  return os.str();
}

ahs::UnsafetyCurve decode_curve_json(const util::JsonValue& v) {
  ahs::UnsafetyCurve c;
  c.times = doubles_at(v, "times");
  c.unsafety = doubles_at(v, "unsafety");
  c.half_width = doubles_at(v, "half_width");
  c.replications =
      static_cast<std::uint64_t>(v.number_at("replications", 0));
  c.solver_iterations =
      static_cast<std::uint64_t>(v.number_at("solver_iterations", 0));
  const util::JsonValue* b = v.find("converged");
  c.converged = b != nullptr ? b->as_bool(true) : true;
  if ((b = v.find("cancelled")) != nullptr) c.cancelled = b->as_bool();
  if ((b = v.find("timed_out")) != nullptr) c.timed_out = b->as_bool();
  if ((b = v.find("resumed")) != nullptr) c.resumed = b->as_bool();
  return c;
}

std::string encode_submit(const SubmitRequest& req) {
  std::ostringstream os;
  os << "{\"op\":\"submit\",\"client\":\"" << util::json_escape(req.client)
     << "\",";
  emit_doubles(os, "times", req.times.data(), req.times.size());
  os << ",\"study\":" << encode_study(req.study) << ",\"points\":[";
  for (std::size_t i = 0; i < req.points.size(); ++i) {
    os << (i != 0 ? ",{" : "{");
    emit_point(os, req.points[i]);
    os << "}";
  }
  os << "]}";
  return os.str();
}

SubmitRequest decode_submit(const util::JsonValue& v) {
  SubmitRequest req;
  req.client = v.string_at("client", "anonymous");
  if (req.client.empty()) req.client = "anonymous";
  req.times = doubles_at(v, "times");
  AHS_REQUIRE(!req.times.empty(), "submit needs a non-empty times grid");
  if (const util::JsonValue* s = v.find("study"))
    req.study = decode_study(*s);
  for (const util::JsonValue& p : points_at(v, "submit").array)
    req.points.push_back(decode_point(p));
  return req;
}

std::string encode_task(const WorkerTask& t) {
  AHS_REQUIRE(t.point_ids.size() == t.points.size(),
              "a task needs one point id per point");
  std::ostringstream os;
  os << "{\"task_id\":" << t.task_id << ",\"points\":[";
  for (std::size_t i = 0; i < t.points.size(); ++i) {
    os << (i != 0 ? "," : "") << "{\"id\":" << t.point_ids[i] << ",";
    emit_point(os, t.points[i]);
    os << "}";
  }
  os << "],";
  emit_doubles(os, "times", t.times.data(), t.times.size());
  os << ",\"study\":" << encode_study(t.study)
     << ",\"debug_delay_seconds\":"
     << util::json_number(t.debug_delay_seconds) << "}";
  return os.str();
}

WorkerTask decode_task(const util::JsonValue& v) {
  WorkerTask t;
  t.task_id = static_cast<std::uint64_t>(v.number_at("task_id", 0));
  for (const util::JsonValue& p : points_at(v, "task").array) {
    t.points.push_back(decode_point(p));
    t.point_ids.push_back(static_cast<std::uint64_t>(p.number_at("id", 0)));
  }
  t.times = doubles_at(v, "times");
  if (const util::JsonValue* s = v.find("study"))
    t.study = decode_study(*s);
  t.debug_delay_seconds = v.number_at("debug_delay_seconds", 0.0);
  return t;
}

std::string task_path(const std::string& dir, std::uint64_t task_id) {
  return dir + "/task_" + std::to_string(task_id) + ".task";
}

std::string point_result_path(const std::string& dir,
                              std::uint64_t point_id) {
  return dir + "/point_" + std::to_string(point_id) + ".result";
}

}  // namespace serve
