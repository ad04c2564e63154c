#include "serve/types.hpp"

#include <cmath>
#include <ostream>
#include <string_view>
#include <vector>

#include "util/check.hpp"

namespace g6::serve {

const char* priority_name(Priority p) {
  switch (p) {
    case Priority::kInteractive:
      return "interactive";
    case Priority::kBatch:
      return "batch";
  }
  return "?";
}

const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kCompleted:
      return "completed";
    case JobState::kFailed:
      return "failed";
    case JobState::kRejected:
      return "rejected";
    case JobState::kQuarantined:
      return "quarantined";
  }
  return "?";
}

const char* reject_reason_name(RejectReason r) {
  switch (r) {
    case RejectReason::kNone:
      return "none";
    case RejectReason::kQueueFull:
      return "queue-full";
    case RejectReason::kBoardsUnavailable:
      return "boards-unavailable";
    case RejectReason::kInvalidSpec:
      return "invalid-spec";
    case RejectReason::kDraining:
      return "draining";
    case RejectReason::kDeadlineExceeded:
      return "deadline-exceeded";
    case RejectReason::kRequeueExhausted:
      return "requeue-exhausted";
    case RejectReason::kQuarantined:
      return "quarantined";
  }
  return "?";
}

void write_job_spec(std::ostream& os, const JobSpec& s) {
  os << "{\"name\":\"" << obs::json_escape(s.name) << "\",\"model\":\""
     << obs::json_escape(s.model) << "\",\"n\":" << s.n
     << ",\"w0\":" << obs::json_number(s.w0)
     << ",\"t_end\":" << obs::json_number(s.t_end)
     << ",\"eps\":" << obs::json_number(s.eps)
     << ",\"eta\":" << obs::json_number(s.eta) << ",\"seed\":" << s.seed
     << ",\"boards\":" << s.boards << ",\"boards_min\":" << s.boards_min
     << ",\"boards_max\":" << s.boards_max << ",\"priority\":\""
     << priority_name(s.priority)
     << "\",\"deadline_rounds\":" << s.deadline_rounds
     << ",\"chaos_fail_quanta\":" << s.chaos_fail_quanta << "}";
}

JobSpec read_job_spec(const obs::JsonValue& j, const std::string& where,
                      obs::JsonFail fail, bool every_key) {
  static const std::vector<std::string_view> kKeys = {
      "name",       "model",      "n",        "w0",
      "t_end",      "eps",        "eta",      "seed",
      "boards",     "boards_min", "boards_max", "priority",
      "deadline_rounds", "chaos_fail_quanta"};
  static const std::vector<std::string_view> kName = {"name"};
  const obs::JsonObjectReader r(j, where, fail, kKeys,
                                every_key ? kKeys : kName);
  JobSpec s;
  s.name = r.string("name");
  r.string("model", &s.model);
  r.count("n", &s.n);
  r.number("w0", &s.w0);
  r.number("t_end", &s.t_end);
  r.number("eps", &s.eps);
  r.number("eta", &s.eta);
  r.count("seed", &s.seed);
  r.count("boards", &s.boards);
  r.count("boards_min", &s.boards_min);
  r.count("boards_max", &s.boards_max);
  if (r.has("priority")) {
    const std::string& p = r.string("priority");
    if (p == "interactive") {
      s.priority = Priority::kInteractive;
    } else if (p == "batch") {
      s.priority = Priority::kBatch;
    } else {
      r.fail("priority must be \"interactive\" or \"batch\", got \"" + p +
             "\"");
    }
  }
  r.count("deadline_rounds", &s.deadline_rounds);
  // Tenants (manifest, wire) may not ask for negative chaos; the journal
  // replays whatever an in-process submit put in the int.
  if (every_key) {
    r.integer("chaos_fail_quanta", &s.chaos_fail_quanta);
  } else {
    r.count("chaos_fail_quanta", &s.chaos_fail_quanta);
  }
  return s;
}

double JobReport::energy_error() const {
  if (state != JobState::kCompleted || e0 == 0.0) return 0.0;
  return std::abs((e_final - e0) / e0);
}

void write_job_report_keys(std::ostream& os, const JobReport& r) {
  os << "\"id\":" << r.id << ",\"name\":\"" << obs::json_escape(r.name)
     << "\",\"priority\":\"" << priority_name(r.priority)
     << "\",\"state\":\"" << job_state_name(r.state)
     << "\",\"reject_reason\":\"" << reject_reason_name(r.reject_reason)
     << "\",\"message\":\"" << obs::json_escape(r.message)
     << "\",\"n\":" << r.n << ",\"boards\":" << r.boards
     << ",\"boards_now\":" << r.boards_now << ",\"resizes\":" << r.resizes
     << ",\"t_end\":" << obs::json_number(r.t_end)
     << ",\"t_reached\":" << obs::json_number(r.t_reached)
     << ",\"steps\":" << r.steps << ",\"blocksteps\":" << r.blocksteps
     << ",\"quanta\":" << r.quanta << ",\"preemptions\":" << r.preemptions
     << ",\"revocations\":" << r.revocations << ",\"requeues\":" << r.requeues
     << ",\"failures\":" << r.failures
     << ",\"wait_s\":" << obs::json_number(r.wait_s)
     << ",\"run_s\":" << obs::json_number(r.run_s)
     << ",\"grape_virtual_s\":" << obs::json_number(r.grape_virtual_s)
     << ",\"e0\":" << obs::json_number(r.e0)
     << ",\"e_final\":" << obs::json_number(r.e_final)
     << ",\"energy_error\":" << obs::json_number(r.energy_error());
}

std::vector<BoardDeath> board_deaths_from_plan(const fault::FaultPlan& plan) {
  std::vector<BoardDeath> deaths;
  for (const fault::HardFailure& hf : plan.hard_failures) {
    if (hf.module != -1 || hf.chip != -1) continue;  // sub-board: engine-level
    G6_REQUIRE_MSG(hf.time >= 0.0 && hf.board >= 0,
                   "board death schedule entries must be non-negative");
    deaths.push_back({static_cast<std::uint64_t>(hf.time),
                      static_cast<std::size_t>(hf.board)});
  }
  return deaths;
}

}  // namespace g6::serve
