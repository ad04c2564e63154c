#include "serve/manifest.hpp"

#include <fstream>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <type_traits>

#include "obs/json.hpp"
#include "serve/admission.hpp"
#include "util/check.hpp"

namespace g6::serve {

namespace {

using obs::JsonValue;

[[noreturn]] void fail(const std::string& what) { throw ManifestError(what); }

double number_at(const JsonValue& obj, const std::string& key,
                 const std::string& where) {
  const JsonValue* v = obj.find(key);
  G6_ASSERT(v != nullptr);
  if (!v->is_number()) fail(where + ": key '" + key + "' must be a number");
  return v->as_number();
}

template <typename Int = std::size_t>
Int count_at(const JsonValue& obj, const std::string& key,
             const std::string& where) {
  std::optional<Int> v = obs::json_integer<Int>(number_at(obj, key, where));
  if constexpr (std::is_signed_v<Int>) {
    if (v && *v < 0) v.reset();
  }
  if (!v) {
    fail(where + ": key '" + key +
         "' must be a non-negative integer (at most " +
         std::to_string(std::numeric_limits<Int>::max()) + ")");
  }
  return *v;
}

std::string string_at(const JsonValue& obj, const std::string& key,
                      const std::string& where) {
  const JsonValue* v = obj.find(key);
  G6_ASSERT(v != nullptr);
  if (!v->is_string()) fail(where + ": key '" + key + "' must be a string");
  return v->as_string();
}

void check_keys(const JsonValue& obj, const std::set<std::string>& allowed,
                const std::string& where) {
  if (!obj.is_object()) fail(where + " must be a JSON object");
  for (const auto& [key, value] : obj.members()) {
    (void)value;
    if (allowed.count(key) == 0) {
      fail(where + ": unknown key '" + key + "'");
    }
  }
}

Priority parse_priority(const std::string& s, const std::string& where) {
  if (s == "interactive") return Priority::kInteractive;
  if (s == "batch") return Priority::kBatch;
  fail(where + ": priority must be \"interactive\" or \"batch\", got \"" + s +
       "\"");
}

JobSpec parse_job(const JsonValue& j, std::size_t index) {
  const std::string where = "jobs[" + std::to_string(index) + "]";
  check_keys(j,
             {"name", "model", "n", "w0", "t_end", "eps", "eta", "seed",
              "boards", "boards_min", "boards_max", "priority",
              "deadline_rounds", "chaos_fail_quanta"},
             where);
  if (j.find("name") == nullptr) fail(where + ": missing required key 'name'");

  JobSpec spec;
  spec.name = string_at(j, "name", where);
  if (j.find("model")) spec.model = string_at(j, "model", where);
  if (j.find("n")) spec.n = count_at(j, "n", where);
  if (j.find("w0")) spec.w0 = number_at(j, "w0", where);
  if (j.find("t_end")) spec.t_end = number_at(j, "t_end", where);
  if (j.find("eps")) spec.eps = number_at(j, "eps", where);
  if (j.find("eta")) spec.eta = number_at(j, "eta", where);
  if (j.find("seed")) spec.seed = count_at<unsigned>(j, "seed", where);
  if (j.find("boards")) spec.boards = count_at(j, "boards", where);
  if (j.find("boards_min")) spec.boards_min = count_at(j, "boards_min", where);
  if (j.find("boards_max")) spec.boards_max = count_at(j, "boards_max", where);
  if (j.find("priority")) {
    spec.priority = parse_priority(string_at(j, "priority", where), where);
  }
  if (j.find("deadline_rounds")) {
    spec.deadline_rounds = count_at<std::uint64_t>(j, "deadline_rounds", where);
  }
  if (j.find("chaos_fail_quanta")) {
    spec.chaos_fail_quanta = count_at<int>(j, "chaos_fail_quanta", where);
  }

  const AdmissionDecision d = AdmissionController::validate_spec(spec);
  if (!d.admit) fail(where + " ('" + spec.name + "'): " + d.message);
  return spec;
}

std::vector<BoardDeath> parse_board_deaths(const JsonValue& arr) {
  if (!arr.is_array()) fail("service.board_deaths must be an array");
  std::vector<BoardDeath> deaths;
  for (std::size_t i = 0; i < arr.items().size(); ++i) {
    const std::string where = "service.board_deaths[" + std::to_string(i) + "]";
    const JsonValue& d = arr.items()[i];
    check_keys(d, {"round", "board"}, where);
    if (d.find("round") == nullptr || d.find("board") == nullptr) {
      fail(where + ": needs both 'round' and 'board'");
    }
    BoardDeath death;
    death.round = count_at<std::uint64_t>(d, "round", where);
    death.board = count_at(d, "board", where);
    deaths.push_back(death);
  }
  return deaths;
}

ServiceConfig parse_service(const JsonValue& s) {
  const std::string where = "service";
  check_keys(s,
             {"max_queue_depth", "quantum_blocksteps", "max_requeues",
              "max_job_failures", "backoff_base_rounds", "boards_per_host",
              "hosts_per_cluster", "clusters", "board_deaths"},
             where);
  ServiceConfig cfg;
  if (s.find("max_queue_depth")) {
    cfg.max_queue_depth = count_at(s, "max_queue_depth", where);
  }
  if (s.find("quantum_blocksteps")) {
    cfg.quantum_blocksteps = count_at(s, "quantum_blocksteps", where);
    if (cfg.quantum_blocksteps < 1) {
      fail("service.quantum_blocksteps must be >= 1");
    }
  }
  if (s.find("max_requeues")) {
    cfg.max_requeues = count_at<int>(s, "max_requeues", where);
  }
  if (s.find("max_job_failures")) {
    cfg.max_job_failures = count_at<int>(s, "max_job_failures", where);
    if (cfg.max_job_failures < 1) fail("service.max_job_failures must be >= 1");
  }
  if (s.find("backoff_base_rounds")) {
    cfg.backoff_base_rounds =
        count_at<std::uint64_t>(s, "backoff_base_rounds", where);
  }
  if (s.find("boards_per_host")) {
    cfg.machine.boards_per_host = count_at(s, "boards_per_host", where);
  }
  if (s.find("hosts_per_cluster")) {
    cfg.machine.hosts_per_cluster = count_at(s, "hosts_per_cluster", where);
  }
  if (s.find("clusters")) {
    cfg.machine.clusters = count_at(s, "clusters", where);
  }
  if (cfg.pool_boards() < 1) fail("service: machine has zero boards");
  if (const JsonValue* deaths = s.find("board_deaths")) {
    cfg.board_deaths = parse_board_deaths(*deaths);
    for (const BoardDeath& d : cfg.board_deaths) {
      if (d.board >= cfg.pool_boards()) {
        fail("service.board_deaths: board " + std::to_string(d.board) +
             " outside the " + std::to_string(cfg.pool_boards()) +
             "-board machine");
      }
    }
  }
  return cfg;
}

}  // namespace

Manifest parse_manifest(const std::string& text) {
  if (text.empty()) fail("manifest: empty manifest text");
  JsonValue root;
  try {
    root = JsonValue::parse(text);
  } catch (const std::exception& e) {
    fail(std::string("manifest is not valid JSON: ") + e.what());
  }
  check_keys(root, {"schema", "service", "jobs"}, "manifest");

  const JsonValue* schema = root.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != kManifestSchema) {
    fail(std::string("manifest: key 'schema' must be \"") + kManifestSchema +
         "\"");
  }

  Manifest m;
  if (const JsonValue* service = root.find("service")) {
    m.service = parse_service(*service);
  }

  // "jobs" is optional: a service-only manifest describes the machine a
  // serving daemon (tools/grape6_served) fronts, with every job arriving
  // over the wire. A PRESENT but empty array is still an error — that is
  // a manifest that meant to list jobs and lost them.
  const JsonValue* jobs = root.find("jobs");
  if (jobs == nullptr) return m;
  if (!jobs->is_array()) fail("manifest: key 'jobs' must be an array");
  if (jobs->items().empty()) fail("manifest: 'jobs' is empty");

  std::set<std::string> names;
  for (std::size_t i = 0; i < jobs->items().size(); ++i) {
    JobSpec spec = parse_job(jobs->items()[i], i);
    if (!names.insert(spec.name).second) {
      fail("jobs[" + std::to_string(i) + "]: duplicate job name '" +
           spec.name + "'");
    }
    m.jobs.push_back(std::move(spec));
  }
  return m;
}

Manifest load_manifest(const std::string& path) {
  G6_REQUIRE_MSG(!path.empty(), "empty manifest path");
  std::ifstream in(path);
  if (!in) fail("cannot open manifest file: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_manifest(ss.str());
}

}  // namespace g6::serve
