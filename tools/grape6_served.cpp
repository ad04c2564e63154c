// grape6_served — the serving front end (docs/SERVING.md): one
// GrapeService time-sharing the emulated machine across many jobs.
//
// --listen picks the mode. Without it the --manifest jobs (schema
// grape6-serve-manifest-v1), or a --recover journal's, run in-process
// until every job is terminal, and the tool exits:
//
//   grape6_served --manifest=jobs.json --out=serve --report-out=report.json
//
// With it the service is served on a grape6-wire-v1 endpoint ("Wire
// protocol") until a client's `drain` or a signal; --manifest is optional
// there (service shape, plus jobs submitted before remote ones):
//
//   grape6_served --listen=unix:/tmp/grape6.sock
//   grape6_served --listen=tcp:127.0.0.1:0       # ephemeral port, printed
//
// Everything else is shared. --journal (docs/RELIABILITY.md "Serving
// durability") journals every job transition and checkpoints running
// jobs; after a crash, kill -9 included, --recover=<journal> finishes the
// run with snapshots bit-identical to an uninterrupted one. SIGTERM and
// SIGINT drain gracefully (running jobs checkpoint, a `drained` record is
// journaled, exit 0). --fault-plan adds its board-level hard failures to
// the manifest's board deaths, on the scheduler's round clock.
//
// Outputs: <out>_<job>.snap per completed job (--snapshots), the
// grape6-serve-report-v1 report, metrics (serve.*, wire.*, per-job
// scopes), a Chrome trace, the per-round time series and the flight
// recorder ring, which is also dumped on a driver error.
//
// Exit codes: 0 = every job completed; 3 = some jobs failed, were
// quarantined or rejected (their reports say why); 1 = driver error (bad
// manifest or endpoint, malformed journal, ...).

#include <atomic>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/grape6.hpp"

namespace {

using namespace g6;

void print_job_table(const serve::GrapeService& service) {
  std::printf("\n%-4s %-14s %-12s %-12s %6s %7s %7s %6s %6s %9s\n", "id",
              "name", "priority", "state", "n", "boards", "quanta", "rev",
              "fail", "dE/E");
  for (serve::JobId id : service.jobs()) {
    const serve::JobReport r = service.report(id);
    std::printf("%-4llu %-14s %-12s %-12s %6zu %7zu %7llu %6llu %6d %9.2e\n",
                static_cast<unsigned long long>(r.id), r.name.c_str(),
                serve::priority_name(r.priority),
                serve::job_state_name(r.state), r.n, r.boards,
                static_cast<unsigned long long>(r.quanta),
                static_cast<unsigned long long>(r.revocations), r.failures,
                r.energy_error());
    if (!r.message.empty()) {
      std::printf("     `- %s\n", r.message.c_str());
    }
  }
}

std::string endpoint_string(const wire::Endpoint& ep) {
  if (ep.kind == wire::Endpoint::Kind::kUnix) return "unix:" + ep.path;
  return "tcp:" + ep.host + ":" + std::to_string(ep.port);
}

// Visible to the catch block of main: a fatal error (HardFault escaping
// the scheduler, bad manifest, I/O) still dumps the flight ring.
std::string g_flightrec_out;  // NOLINT(cert-err58-cpp) empty-string ctor

// SIGTERM/SIGINT → graceful drain. The handler only flips the flag; the
// scheduler polls it between rounds, checkpoints running jobs, journals
// a `drained` record and returns.
std::atomic<bool> g_stop{false};

extern "C" void handle_stop_signal(int) {
  g_stop.store(true, std::memory_order_relaxed);
}

}  // namespace

int main(int argc, char** argv) try {
  Cli cli(argc, argv);
  const std::string listen = cli.get_string(
      "listen", "",
      "serve remote clients on this endpoint (unix:<path> or "
      "tcp:<host>:<port>; tcp port 0 picks an ephemeral port, printed at "
      "startup); \"\" = run the --manifest or --recover jobs and exit");
  const std::string manifest_path = cli.get_string(
      "manifest", "",
      "job manifest JSON (grape6-serve-manifest-v1); with --listen it is "
      "optional: service shape + jobs submitted at startup");
  const std::string recover_path = cli.get_string(
      "recover", "",
      "recover from this write-ahead journal instead of --manifest");
  const std::string out =
      cli.get_string("out", "grape6_served", "snapshot prefix");
  const bool snapshots = cli.get_bool(
      "snapshots", true, "write <out>_<name>.snap per completed job");
  const std::string journal_path = cli.get_string(
      "journal", "",
      "write-ahead job journal (grape6-serve-journal-v1; \"\" = off)");
  const std::string checkpoint_dir = cli.get_string(
      "checkpoint-dir", "",
      "job checkpoint directory (default: <journal>.ckpts)");
  const auto checkpoint_every = cli.get_int(
      "checkpoint-every", 1,
      "checkpoint running jobs every N quanta (0 = final only)");
  const std::string report_out = cli.get_string(
      "report-out", "", "write serve report JSON here (\"\" = off)");
  const std::string metrics_out =
      cli.get_string("metrics-out", "", "write metrics JSON here (\"\" = off)");
  const std::string trace_out = cli.get_string(
      "trace-out", "", "write Chrome trace JSON here (\"\" = off)");
  const std::string timeseries_out = cli.get_string(
      "timeseries-out", "",
      "write per-round time-series JSON here (\"\" = off)");
  g_flightrec_out = cli.get_string(
      "flightrec-out", "",
      "write flight-recorder JSON here, also on error (\"\" = off)");
  const std::string fault_plan_path = cli.get_string(
      "fault-plan", "", "board deaths from this fault plan's hard failures");
  const auto threads = static_cast<unsigned>(cli.get_int(
      "threads", 0, "exec pool threads (0 = auto: $G6_EXEC_THREADS, then "
                    "hardware)"));
  if (cli.finish()) return 0;

  const bool daemon = !listen.empty();
  const int sources = !manifest_path.empty() + !recover_path.empty();
  if (sources > 1 || (sources == 0 && !daemon)) {
    std::fprintf(stderr,
                 "error: give one of --manifest and --recover (with "
                 "--listen, at most one; see --help)\n");
    return 1;
  }
  if (threads > 0) exec::ThreadPool::set_global_threads(threads);
  if (!trace_out.empty()) obs::Tracer::global().enable();
  std::signal(SIGTERM, handle_stop_signal);
  std::signal(SIGINT, handle_stop_signal);

  std::unique_ptr<serve::GrapeService> owned;
  serve::RecoveryInfo info;
  serve::Manifest manifest;
  if (!recover_path.empty()) {
    owned = serve::GrapeService::recover(recover_path, &info, &g_stop);
  } else {
    if (!manifest_path.empty()) {
      manifest = serve::load_manifest(manifest_path);
    }
    if (!fault_plan_path.empty()) {
      const fault::FaultPlan plan =
          fault::FaultPlan::from_file(fault_plan_path);
      for (const serve::BoardDeath& d :
           serve::board_deaths_from_plan(plan)) {
        manifest.service.board_deaths.push_back(d);
      }
    }
    if (!journal_path.empty()) {
      serve::DurabilityConfig& dur = manifest.service.durability;
      dur.journal_path = journal_path;
      dur.checkpoint_dir =
          checkpoint_dir.empty() ? journal_path + ".ckpts" : checkpoint_dir;
      dur.checkpoint_every_quanta =
          static_cast<std::uint64_t>(checkpoint_every < 0 ? 0
                                                          : checkpoint_every);
      std::filesystem::create_directories(dur.checkpoint_dir);
    }
    manifest.service.stop_flag = &g_stop;
    owned = std::make_unique<serve::GrapeService>(manifest.service);
  }
  serve::GrapeService& service = *owned;

  std::optional<wire::WireServer> server;
  std::string listening;
  if (daemon) {
    server.emplace(service, listen);
    listening = ", listening on " + endpoint_string(server->endpoint());
  }
  std::printf("grape6_served: %zu-board machine, quantum %zu blocksteps%s%s\n",
              service.config().pool_boards(),
              service.config().quantum_blocksteps,
              service.config().durability.enabled() ? ", durable" : "",
              listening.c_str());
  std::fflush(stdout);  // a harness waits for this line before connecting

  if (!recover_path.empty()) {
    std::printf(
        "grape6_served: recovered from %s: %zu journal record(s)%s, "
        "%zu job(s) live (%zu from checkpoint), %zu already terminal, "
        "resuming at round %llu\n",
        recover_path.c_str(), static_cast<std::size_t>(info.journal_records),
        info.torn_tail ? " (torn tail dropped)" : "",
        static_cast<std::size_t>(info.jobs_restored),
        static_cast<std::size_t>(info.jobs_resumed_from_checkpoint),
        static_cast<std::size_t>(info.jobs_already_terminal),
        static_cast<unsigned long long>(info.resume_round));
  }
  for (const serve::JobSpec& spec : manifest.jobs) {
    const serve::SubmitResult r = service.submit(spec);
    if (!r) {
      std::printf("  rejected '%s' (%s): %s\n", spec.name.c_str(),
                  serve::reject_reason_name(r.reason), r.message.c_str());
    }
  }

  if (server) {
    server->run(&g_stop);
    const wire::WireServerStats& ws = server->stats();
    std::printf("grape6_served: served %zu connection(s), %zu request(s), "
                "%zu event(s), %zu frame(s) in / %zu out, %zu protocol "
                "error(s)\n",
                static_cast<std::size_t>(ws.connections),
                static_cast<std::size_t>(ws.requests),
                static_cast<std::size_t>(ws.events),
                static_cast<std::size_t>(ws.frames_in),
                static_cast<std::size_t>(ws.frames_out),
                static_cast<std::size_t>(ws.protocol_errors));
  } else {
    service.drain();
    service.run_until_drained();
  }
  const bool drained_early = g_stop.load(std::memory_order_relaxed);

  std::vector<std::pair<serve::JobId, std::string>> snapshot_files;
  if (snapshots && !drained_early) {
    for (serve::JobId id : service.jobs()) {
      if (service.state(id) != serve::JobState::kCompleted) continue;
      double t = 0.0;
      const ParticleSet& final = service.final_state(id, &t);
      const std::string file = out + "_" + service.report(id).name + ".snap";
      save_snapshot(file, final, t);
      snapshot_files.emplace_back(id, file);
    }
  }

  print_job_table(service);
  const serve::ServiceStats& st = service.stats();
  std::printf("\nservice: %llu rounds, %llu completed, %llu failed, %llu "
              "quarantined, %llu rejected, %llu preemptions, %llu "
              "revocations, %llu resize(s), %zu board(s) dead, makespan "
              "%.3f s\n",
              static_cast<unsigned long long>(st.rounds),
              static_cast<unsigned long long>(st.completed),
              static_cast<unsigned long long>(st.failed),
              static_cast<unsigned long long>(st.quarantined),
              static_cast<unsigned long long>(st.rejected),
              static_cast<unsigned long long>(st.preemptions),
              static_cast<unsigned long long>(st.revocations),
              static_cast<unsigned long long>(st.resizes), st.boards_dead,
              st.makespan_s);
  if (drained_early) {
    std::printf("service: drained on signal; resume with --recover\n");
  }

  if (!report_out.empty()) {
    serve::write_service_report(report_out, service, snapshot_files);
  }
  obs::export_metrics_json(metrics_out, &st.eq10);
  obs::export_chrome_trace(trace_out);
  obs::export_timeseries_json(timeseries_out);
  obs::export_flight_json(g_flightrec_out);

  const bool all_completed =
      st.failed == 0 && st.rejected == 0 && st.quarantined == 0;
  return all_completed ? 0 : 3;
} catch (const std::exception& e) {
  std::fprintf(stderr, "grape6_served: error: %s\n", e.what());
  obs::export_flight_json(g_flightrec_out);
  return 1;
}
