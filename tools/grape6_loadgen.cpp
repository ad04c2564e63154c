// grape6_loadgen — many-client load generator for grape6_served
// (docs/SERVING.md, "Wire protocol").
//
// Opens C connections to a running daemon, submits a job stream across
// them (a manifest's jobs, or --jobs=N synthetic ones with mixed
// priorities and autoscaling lease bounds), subscribes for streamed
// events, and then verifies the serving contract end to end:
//
//   * every accepted job produces EXACTLY ONE terminal event (a
//     duplicate or a missing terminal is a protocol bug -> exit 1);
//   * rejected submissions carry an explicit reason (admission
//     backpressure travels verbatim over the wire);
//   * with --snapshots-out, final snapshots stream back and are written
//     with the same writer a local run uses — byte-identical files.
//
// The report (--report-out) records jobs/hour and the p50/p95/p99 wait
// SLO percentiles the bench harness regresses on.
//
//   grape6_loadgen --connect=unix:/tmp/grape6.sock --jobs=100
//                  --connections=8 --drain --report-out=load.json
//
// Exit codes: 0 = all accepted jobs completed and the exactly-once
// check held; 3 = jobs failed / were rejected or quarantined; 1 =
// driver or protocol error.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/grape6.hpp"
#include "obs/json.hpp"
#include "util/fileio.hpp"

namespace {

using namespace g6;

/// Deterministic synthetic mix: small fast jobs, ~1/4 interactive,
/// ~1/3 carrying autoscaling lease bounds, seeds all distinct.
serve::JobSpec synthetic_job(std::size_t i) {
  serve::JobSpec spec;
  std::ostringstream name;
  name << "load-" << i;
  spec.name = name.str();
  spec.n = 48 + 16 * (i % 3);
  spec.t_end = 0.0625;
  spec.eta = 0.02;
  spec.seed = 1000 + static_cast<std::uint64_t>(i);
  spec.boards = 1;
  if (i % 4 == 1) spec.priority = serve::Priority::kInteractive;
  if (i % 3 == 2) {
    spec.boards_min = 1;
    spec.boards_max = 2;
  }
  return spec;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

}  // namespace

int main(int argc, char** argv) try {
  Cli cli(argc, argv);
  const std::string connect = cli.get_string(
      "connect", "unix:grape6_served.sock",
      "daemon endpoint (unix:<path> or tcp:<host>:<port>)");
  const std::string manifest_path = cli.get_string(
      "manifest", "", "submit this manifest's jobs instead of --jobs");
  const auto jobs_n =
      cli.get_int("jobs", 10, "synthetic jobs to submit (with no --manifest)");
  const auto connections =
      cli.get_int("connections", 4, "client connections to spread load over");
  const std::string snapshots_out = cli.get_string(
      "snapshots-out", "",
      "prefix for streamed final snapshots (<prefix>_<name>.snap; "
      "\"\" = don't request snapshots)");
  const std::string report_out = cli.get_string(
      "report-out", "", "write loadgen report JSON here (\"\" = off)");
  const bool drain = cli.get_bool(
      "drain", true, "send a drain request so the daemon exits when done");
  if (cli.finish()) return 0;

  if (connections < 1) {
    std::fprintf(stderr, "error: --connections must be >= 1\n");
    return 1;
  }

  std::vector<serve::JobSpec> specs;
  if (!manifest_path.empty()) {
    specs = serve::load_manifest(manifest_path).jobs;
  } else {
    for (int i = 0; i < jobs_n; ++i) {
      specs.push_back(synthetic_job(static_cast<std::size_t>(i)));
    }
  }

  // Connection 0 is the subscriber; the rest only submit. The
  // round-robin spread is what exercises many concurrent clients on the
  // server's poll loop.
  std::vector<std::unique_ptr<wire::RemoteClient>> clients;
  for (int i = 0; i < connections; ++i) {
    clients.push_back(std::make_unique<wire::RemoteClient>(connect));
  }
  clients[0]->subscribe(/*snapshots=*/!snapshots_out.empty(),
                        /*all_jobs=*/true);

  const double t0 = obs::monotonic_seconds();
  std::size_t accepted = 0, rejected = 0;
  std::map<serve::JobId, std::string> pending;  // accepted, not yet terminal
  for (std::size_t i = 0; i < specs.size(); ++i) {
    wire::RemoteClient& c = *clients[i % clients.size()];
    const serve::SubmitResult r = c.submit(specs[i]);
    if (r) {
      ++accepted;
      pending[r.id] = specs[i].name;
    } else {
      ++rejected;
      std::printf("loadgen: rejected '%s' (%s): %s\n", specs[i].name.c_str(),
                  c.last_reject_reason().c_str(), r.message.c_str());
    }
  }
  if (drain) clients[0]->drain();
  std::printf("loadgen: submitted %zu job(s) over %ld connection(s): "
              "%zu accepted, %zu rejected\n",
              specs.size(), static_cast<long>(connections), accepted,
              rejected);

  // Stream events until every accepted job has its terminal. The
  // exactly-once check: a second terminal for a job, or EOF with
  // terminals missing, is a protocol failure.
  std::map<serve::JobId, int> terminals;
  std::map<serve::JobId, int> progress;
  std::size_t completed = 0, failed = 0, snapshots_written = 0;
  std::vector<double> wait_s, run_s;
  std::size_t terminals_needed = pending.size();
  // A job's snapshot event trails its terminal in the stream, so keep
  // draining past the last terminal until every completed job's
  // snapshot landed (or the drained server EOFs).
  while (terminals_needed > 0 ||
         (!snapshots_out.empty() && snapshots_written < completed)) {
    std::optional<wire::WireEvent> ev = clients[0]->next_event(true);
    if (!ev) {
      if (terminals_needed == 0) break;  // EOF after all terminals: fine
      std::fprintf(stderr,
                   "loadgen: PROTOCOL ERROR: server EOF with %zu job(s) "
                   "missing their terminal event\n",
                   terminals_needed);
      return 1;
    }
    // Events are read as strictly as the server reads requests: a
    // missing or mistyped key is a WireError, not a silent zero.
    const obs::JsonObjectReader e(ev->root, "event", wire::throw_wire_error);
    if (ev->event == "error") {
      std::fprintf(stderr, "loadgen: server error event: %s\n",
                   e.string("message").c_str());
      return 1;
    }
    const auto job = e.count<serve::JobId>("job");
    if (ev->event == "progress") {
      ++progress[job];
    } else if (ev->event == "terminal") {
      if (++terminals[job] > 1) {
        std::fprintf(stderr,
                     "loadgen: PROTOCOL ERROR: duplicate terminal event "
                     "for job %llu\n",
                     static_cast<unsigned long long>(job));
        return 1;
      }
      if (pending.count(job) != 0) --terminals_needed;
      const obs::JsonObjectReader rep(e.at("report"), "report",
                                      wire::throw_wire_error);
      const std::string& state = rep.string("state");
      if (state == "completed") {
        ++completed;
        wait_s.push_back(rep.number("wait_s"));
        run_s.push_back(rep.number("run_s"));
      } else {
        ++failed;
        std::printf("loadgen: job %llu '%s' ended %s: %s\n",
                    static_cast<unsigned long long>(job),
                    rep.string("name").c_str(), state.c_str(),
                    rep.string("message").c_str());
      }
    } else if (ev->event == "snapshot" && !snapshots_out.empty()) {
      double t = 0.0;
      const ParticleSet set = wire::decode_snapshot(e.at("snapshot"), &t);
      save_snapshot(snapshots_out + "_" + e.string("name") + ".snap", set, t);
      ++snapshots_written;
    }
  }
  const double wall_s = obs::monotonic_seconds() - t0;

  // Every accepted job: exactly one terminal, and >= 1 progress event
  // (a job that never streamed progress was invisibly scheduled).
  std::size_t without_progress = 0;
  for (const auto& [id, name] : pending) {
    if (terminals[id] != 1) {
      std::fprintf(stderr,
                   "loadgen: PROTOCOL ERROR: job %llu '%s' has %d "
                   "terminal event(s)\n",
                   static_cast<unsigned long long>(id), name.c_str(),
                   terminals[id]);
      return 1;
    }
    if (progress[id] == 0) ++without_progress;
  }

  const double p50 = percentile(wait_s, 0.50);
  const double p95 = percentile(wait_s, 0.95);
  const double p99 = percentile(wait_s, 0.99);
  const double jobs_per_hour =
      wall_s > 0.0 ? static_cast<double>(completed) * 3600.0 / wall_s : 0.0;
  std::printf("loadgen: %zu completed, %zu failed, %zu rejected in %.3f s "
              "(%.0f jobs/h); wait p50 %.4f s, p95 %.4f s, p99 %.4f s; "
              "%zu snapshot(s); exactly-once terminals OK, %zu job(s) "
              "without progress events\n",
              completed, failed, rejected, wall_s, jobs_per_hour, p50, p95,
              p99, snapshots_written, without_progress);

  if (!report_out.empty()) {
    std::ostringstream os;
    os.precision(17);
    os << "{\n  \"schema\": \"grape6-loadgen-report-v1\",\n"
       << "  \"endpoint\": \"" << obs::json_escape(connect) << "\",\n"
       << "  \"connections\": " << connections << ",\n"
       << "  \"submitted\": " << specs.size() << ",\n"
       << "  \"accepted\": " << accepted << ",\n"
       << "  \"rejected\": " << rejected << ",\n"
       << "  \"completed\": " << completed << ",\n"
       << "  \"failed\": " << failed << ",\n"
       << "  \"snapshots\": " << snapshots_written << ",\n"
       << "  \"wall_s\": " << wall_s << ",\n"
       << "  \"jobs_per_hour\": " << jobs_per_hour << ",\n"
       << "  \"wait_p50_s\": " << p50 << ",\n"
       << "  \"wait_p95_s\": " << p95 << ",\n"
       << "  \"wait_p99_s\": " << p99 << ",\n"
       << "  \"exactly_once_terminals\": true,\n"
       << "  \"jobs_without_progress\": " << without_progress << "\n}\n";
    const std::string body = os.str();
    write_file_atomic(report_out, [&body](std::ostream& f) { f << body; });
  }

  return failed == 0 && rejected == 0 ? 0 : 3;
} catch (const std::exception& e) {
  std::fprintf(stderr, "grape6_loadgen: error: %s\n", e.what());
  return 1;
}
