#include "fault/plan.hpp"

#include <cstdlib>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>

#include "util/errors.hpp"
#include "obs/json.hpp"
#include "util/check.hpp"

namespace g6::fault {

bool FaultPlan::any() const {
  return jmem_flip_rate > 0.0 || ipacket_rate > 0.0 || compute_rate > 0.0 ||
         !stuck_chips.empty() || !hard_failures.empty() ||
         link_drop_rate > 0.0 || link_spike_rate > 0.0;
}

FaultPlan FaultPlan::uniform_transients(double rate, std::uint64_t seed) {
  G6_REQUIRE(rate >= 0.0 && rate <= 1.0);
  FaultPlan plan;
  plan.seed = seed;
  plan.jmem_flip_rate = rate;
  plan.ipacket_rate = rate;
  plan.compute_rate = rate;
  return plan;
}

namespace {

double require_rate(const obs::JsonValue& v, const char* key) {
  if (!v.is_number()) throw FaultError(std::string("fault plan: ") + key + " must be a number");
  const double r = v.as_number();
  if (r < 0.0 || r > 1.0)
    throw FaultError(std::string("fault plan: ") + key + " outside [0, 1]");
  return r;
}

double require_number(const obs::JsonValue& v, const char* key) {
  if (!v.is_number()) throw FaultError(std::string("fault plan: ") + key + " must be a number");
  return v.as_number();
}

template <typename Int = int>
Int require_int(const obs::JsonValue& v, const char* key) {
  const std::optional<Int> i = obs::json_integer<Int>(require_number(v, key));
  if (!i) {
    throw FaultError(std::string("fault plan: ") + key +
                     " must be an integer in [" +
                     std::to_string(std::numeric_limits<Int>::min()) + ", " +
                     std::to_string(std::numeric_limits<Int>::max()) + "]");
  }
  return *i;
}

HardFailure parse_hard_failure(const obs::JsonValue& v) {
  if (!v.is_object()) throw FaultError("fault plan: hard_failures entries must be objects");
  HardFailure f;
  bool saw_board = false;
  for (const auto& [key, value] : v.members()) {
    if (key == "time") {
      f.time = require_number(value, "hard_failures.time");
    } else if (key == "board") {
      f.board = require_int(value, "hard_failures.board");
      saw_board = true;
    } else if (key == "module") {
      f.module = require_int(value, "hard_failures.module");
    } else if (key == "chip") {
      f.chip = require_int(value, "hard_failures.chip");
    } else {
      throw FaultError("fault plan: unknown hard_failures key '" + key + "'");
    }
  }
  if (!saw_board) throw FaultError("fault plan: hard_failures entry missing 'board'");
  return f;
}

}  // namespace

FaultPlan FaultPlan::from_json(const obs::JsonValue& v) {
  if (!v.is_object()) throw FaultError("fault plan: top level must be a JSON object");
  FaultPlan plan;
  for (const auto& [key, value] : v.members()) {
    if (key == "seed") {
      plan.seed = require_int<std::uint64_t>(value, "seed");
    } else if (key == "jmem_flip_rate") {
      plan.jmem_flip_rate = require_rate(value, "jmem_flip_rate");
    } else if (key == "ipacket_rate") {
      plan.ipacket_rate = require_rate(value, "ipacket_rate");
    } else if (key == "compute_rate") {
      plan.compute_rate = require_rate(value, "compute_rate");
    } else if (key == "stuck_chips") {
      if (!value.is_array()) throw FaultError("fault plan: stuck_chips must be an array");
      for (const auto& item : value.items())
        plan.stuck_chips.push_back(require_int(item, "stuck_chips[]"));
    } else if (key == "hard_failures") {
      if (!value.is_array()) throw FaultError("fault plan: hard_failures must be an array");
      for (const auto& item : value.items())
        plan.hard_failures.push_back(parse_hard_failure(item));
    } else if (key == "link_drop_rate") {
      plan.link_drop_rate = require_rate(value, "link_drop_rate");
    } else if (key == "link_spike_rate") {
      plan.link_spike_rate = require_rate(value, "link_spike_rate");
    } else if (key == "link_spike_factor") {
      plan.link_spike_factor = require_number(value, "link_spike_factor");
      if (plan.link_spike_factor < 1.0)
        throw FaultError("fault plan: link_spike_factor must be >= 1");
    } else if (key == "retransmit_timeout_s") {
      plan.retransmit_timeout_s = require_number(value, "retransmit_timeout_s");
      if (plan.retransmit_timeout_s < 0.0)
        throw FaultError("fault plan: retransmit_timeout_s must be >= 0");
    } else {
      throw FaultError("fault plan: unknown key '" + key + "'");
    }
  }
  return plan;
}

FaultPlan FaultPlan::from_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw FaultError("fault plan: cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) throw FaultError("fault plan: read error on '" + path + "'");
  try {
    return from_json(obs::JsonValue::parse(buf.str()));
  } catch (const FaultError&) {
    throw;
  } catch (const std::exception& e) {
    throw FaultError("fault plan: parse error in '" + path + "': " + e.what());
  }
}

FaultPlan FaultPlan::from_env() {
  const char* path = std::getenv("G6_FAULT_PLAN");
  if (path == nullptr || *path == '\0') return FaultPlan{};
  return from_file(path);
}

std::string FaultPlan::describe() const {
  std::ostringstream os;
  os << "fault plan: seed=" << seed << " jmem=" << jmem_flip_rate
     << " ipacket=" << ipacket_rate << " compute=" << compute_rate
     << " stuck=" << stuck_chips.size() << " hard=" << hard_failures.size()
     << " link_drop=" << link_drop_rate << " link_spike=" << link_spike_rate;
  return os.str();
}

}  // namespace g6::fault
