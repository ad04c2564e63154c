#include "serve/manifest.hpp"

#include <fstream>
#include <set>
#include <sstream>

#include "obs/json.hpp"
#include "serve/admission.hpp"
#include "util/check.hpp"

namespace g6::serve {

namespace {

using obs::JsonObjectReader;
using obs::JsonValue;

[[noreturn]] void fail(const std::string& what) { throw ManifestError(what); }

JobSpec parse_job(const JsonValue& j, std::size_t index) {
  const std::string where = "jobs[" + std::to_string(index) + "]";
  JobSpec spec = read_job_spec(j, where, fail);
  const AdmissionDecision d = AdmissionController::validate_spec(spec);
  if (!d.admit) fail(where + " ('" + spec.name + "'): " + d.message);
  return spec;
}

ServiceConfig parse_service(const JsonValue& s) {
  const JsonObjectReader r(
      s, "service", fail,
      {"max_queue_depth", "quantum_blocksteps", "max_requeues",
       "max_job_failures", "backoff_base_rounds", "boards_per_host",
       "hosts_per_cluster", "clusters", "board_deaths"});
  ServiceConfig cfg;
  r.count("max_queue_depth", &cfg.max_queue_depth);
  if (r.count("quantum_blocksteps", &cfg.quantum_blocksteps) &&
      cfg.quantum_blocksteps < 1) {
    fail("service.quantum_blocksteps must be >= 1");
  }
  r.count("max_requeues", &cfg.max_requeues);
  if (r.count("max_job_failures", &cfg.max_job_failures) &&
      cfg.max_job_failures < 1) {
    fail("service.max_job_failures must be >= 1");
  }
  r.count("backoff_base_rounds", &cfg.backoff_base_rounds);
  r.count("boards_per_host", &cfg.machine.boards_per_host);
  r.count("hosts_per_cluster", &cfg.machine.hosts_per_cluster);
  r.count("clusters", &cfg.machine.clusters);
  if (cfg.pool_boards() < 1) fail("service: machine has zero boards");
  if (!r.has("board_deaths")) return cfg;
  const std::vector<JsonValue>& deaths = r.array("board_deaths");
  for (std::size_t i = 0; i < deaths.size(); ++i) {
    const JsonObjectReader d(
        deaths[i], "service.board_deaths[" + std::to_string(i) + "]", fail,
        {"round", "board"}, {"round", "board"});
    const BoardDeath death{d.count<std::uint64_t>("round"),
                           d.count<std::size_t>("board")};
    if (death.board >= cfg.pool_boards()) {
      fail("service.board_deaths: board " + std::to_string(death.board) +
           " outside the " + std::to_string(cfg.pool_boards()) +
           "-board machine");
    }
    cfg.board_deaths.push_back(death);
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
  const JsonObjectReader r(root, "manifest", fail,
                           {"schema", "service", "jobs"}, {"schema"});
  if (r.string("schema") != kManifestSchema) {
    fail(std::string("manifest: key 'schema' must be \"") + kManifestSchema +
         "\"");
  }

  Manifest m;
  if (r.has("service")) m.service = parse_service(r.at("service"));

  // "jobs" is optional: a service-only manifest describes the machine a
  // serving daemon (tools/grape6_served) fronts, with every job arriving
  // over the wire. A PRESENT but empty array is still an error — that is
  // a manifest that meant to list jobs and lost them.
  if (!r.has("jobs")) return m;
  const std::vector<JsonValue>& jobs = r.array("jobs");
  if (jobs.empty()) fail("manifest: 'jobs' is empty");

  std::set<std::string> names;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    JobSpec spec = parse_job(jobs[i], i);
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
