#include "fault/plan.hpp"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

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

[[noreturn]] void fail(const std::string& what) { throw FaultError(what); }

HardFailure parse_hard_failure(const obs::JsonValue& v, std::size_t index) {
  const obs::JsonObjectReader r(
      v, "fault plan: hard_failures[" + std::to_string(index) + "]", fail,
      {"time", "board", "module", "chip"}, {"board"});
  HardFailure f;
  r.number("time", &f.time);
  r.integer("board", &f.board);
  r.integer("module", &f.module);
  r.integer("chip", &f.chip);
  return f;
}

}  // namespace

FaultPlan FaultPlan::from_json(const obs::JsonValue& v) {
  const obs::JsonObjectReader r(
      v, "fault plan", fail,
      {"seed", "jmem_flip_rate", "ipacket_rate", "compute_rate", "stuck_chips",
       "hard_failures", "link_drop_rate", "link_spike_rate",
       "link_spike_factor", "retransmit_timeout_s"});
  FaultPlan plan;
  r.integer("seed", &plan.seed);
  for (const auto& [key, rate] :
       {std::pair{"jmem_flip_rate", &plan.jmem_flip_rate},
        std::pair{"ipacket_rate", &plan.ipacket_rate},
        std::pair{"compute_rate", &plan.compute_rate},
        std::pair{"link_drop_rate", &plan.link_drop_rate},
        std::pair{"link_spike_rate", &plan.link_spike_rate}}) {
    if (r.number(key, rate) && !(*rate >= 0.0 && *rate <= 1.0)) {
      r.fail(std::string(key) + " outside [0, 1]");
    }
  }
  if (r.has("stuck_chips")) {
    for (const obs::JsonValue& item : r.array("stuck_chips")) {
      plan.stuck_chips.push_back(r.integer<int>(item, "stuck_chips[]"));
    }
  }
  if (r.has("hard_failures")) {
    const std::vector<obs::JsonValue>& items = r.array("hard_failures");
    for (std::size_t i = 0; i < items.size(); ++i) {
      plan.hard_failures.push_back(parse_hard_failure(items[i], i));
    }
  }
  if (r.number("link_spike_factor", &plan.link_spike_factor) &&
      plan.link_spike_factor < 1.0) {
    r.fail("link_spike_factor must be >= 1");
  }
  if (r.number("retransmit_timeout_s", &plan.retransmit_timeout_s) &&
      plan.retransmit_timeout_s < 0.0) {
    r.fail("retransmit_timeout_s must be >= 0");
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
