// grape6_serve — multi-tenant serving driver (docs/SERVING.md).
//
// Reads a JSON job manifest (schema grape6-serve-manifest-v1), submits
// every job through the admission controller, time-shares the emulated
// machine across the admitted ones, and writes per-job final snapshots
// plus a per-job + aggregate report.
//
//   grape6_serve --manifest=jobs.json --out=serve
//                --report-out=serve_report.json
//
// Durable mode (docs/RELIABILITY.md "Serving durability"):
//
//   grape6_serve --manifest=jobs.json --journal=serve.wal
//                --checkpoint-dir=ckpts --checkpoint-every=1
//
// records every job lifecycle transition in an fsync'd write-ahead
// journal and checkpoints running jobs at quantum boundaries. After a
// crash (kill -9 included),
//
//   grape6_serve --recover=serve.wal --out=serve
//
// replays the journal, resumes in-flight jobs from their latest valid
// checkpoint and finishes the run — final snapshots are bit-identical
// to an uninterrupted run. SIGTERM triggers a graceful drain: running
// jobs are checkpointed, a `drained` record is journaled, and the
// process exits cleanly (resume later with --recover).
//
// Outputs:
//   <out>_<job>.snap       final snapshot of each completed job; the
//                          serve_identity ctest cmp's these against
//                          standalone runs of the same specs
//   --report-out=...       JSON report, schema grape6-serve-report-v1
//   --metrics-out=...      global metrics JSON (serve.* instruments plus
//                          the per-job "scopes" attribution section)
//   --trace-out=...        Chrome trace (serve.round / serve.job spans;
//                          spans carry an args.job owner id)
//   --timeseries-out=...   per-round time series (grape6-timeseries-v1)
//   --flightrec-out=...    flight-recorder ring (grape6-flightrec-v1);
//                          also dumped on a driver error so chaos-run
//                          post-mortems survive the crash
//
// Board deaths can come from the manifest ("service.board_deaths") or
// from the board-level hard failures of a fault plan (--fault-plan),
// mapped onto scheduler rounds — either way a death under a lease means
// revocation and re-queue, not process death.
//
// Exit codes: 0 = every job completed; 3 = some jobs failed, were
// quarantined or rejected (their reports say why); 1 = driver error
// (bad manifest, malformed journal, etc.).

#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
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

// Visible to the catch block of main: a fatal error (HardFault escaping
// the scheduler, bad manifest, I/O) still dumps the flight ring.
std::string g_flightrec_out;  // NOLINT(cert-err58-cpp) empty-string ctor

// SIGTERM → graceful drain. The handler only flips the flag; the
// scheduler polls it between rounds, checkpoints running jobs, journals
// a `drained` record and returns from run_until_drained.
std::atomic<bool> g_stop{false};

extern "C" void handle_sigterm(int) {
  g_stop.store(true, std::memory_order_relaxed);
}

}  // namespace

int main(int argc, char** argv) try {
  Cli cli(argc, argv);
  const std::string manifest_path = cli.get_string(
      "manifest", "", "job manifest JSON (grape6-serve-manifest-v1)");
  const std::string recover_path = cli.get_string(
      "recover", "",
      "recover from this write-ahead journal instead of --manifest");
  const std::string out =
      cli.get_string("out", "grape6_serve", "snapshot prefix");
  const bool snapshots =
      cli.get_bool("snapshots", true, "write <out>_<job>.snap per job");
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

  if (manifest_path.empty() == recover_path.empty()) {
    std::fprintf(stderr,
                 "error: exactly one of --manifest and --recover is "
                 "required (see --help)\n");
    return 1;
  }
  if (threads > 0) exec::ThreadPool::set_global_threads(threads);
  if (!trace_out.empty()) obs::Tracer::global().enable();
  std::signal(SIGTERM, handle_sigterm);

  std::unique_ptr<serve::GrapeService> owned;
  if (recover_path.empty()) {
    serve::Manifest manifest = serve::load_manifest(manifest_path);
    if (!fault_plan_path.empty()) {
      const fault::FaultPlan plan =
          fault::FaultPlan::from_file(fault_plan_path);
      for (const serve::BoardDeath& d :
           serve::board_deaths_from_plan(plan)) {
        manifest.service.board_deaths.push_back(d);
      }
    }
    if (!journal_path.empty()) {
      manifest.service.durability.journal_path = journal_path;
      manifest.service.durability.checkpoint_dir =
          checkpoint_dir.empty() ? journal_path + ".ckpts" : checkpoint_dir;
      manifest.service.durability.checkpoint_every_quanta =
          static_cast<std::uint64_t>(checkpoint_every < 0 ? 0
                                                          : checkpoint_every);
      std::filesystem::create_directories(
          manifest.service.durability.checkpoint_dir);
    }
    manifest.service.stop_flag = &g_stop;

    owned = std::make_unique<serve::GrapeService>(manifest.service);
    serve::GrapeService& service = *owned;
    serve::ServeClient client = service.client();

    std::printf("grape6_serve: %zu-board machine, %zu job(s), quantum %zu "
                "blocksteps%s\n",
                service.config().pool_boards(), manifest.jobs.size(),
                service.config().quantum_blocksteps,
                journal_path.empty() ? "" : ", durable");

    for (const serve::JobSpec& spec : manifest.jobs) {
      const serve::SubmitResult r = client.submit(spec);
      if (!r) {
        std::printf("  rejected '%s' (%s): %s\n", spec.name.c_str(),
                    serve::reject_reason_name(r.reason), r.message.c_str());
      }
    }
    service.drain();
  } else {
    serve::RecoveryInfo info;
    owned = serve::GrapeService::recover(recover_path, &info, &g_stop);
    std::printf(
        "grape6_serve: recovered from %s: %zu journal record(s)%s, "
        "%zu job(s) live (%zu from checkpoint), %zu already terminal, "
        "resuming at round %llu\n",
        recover_path.c_str(), info.journal_records,
        info.torn_tail ? " (torn tail dropped)" : "", info.jobs_restored,
        info.jobs_resumed_from_checkpoint, info.jobs_already_terminal,
        static_cast<unsigned long long>(info.resume_round));
  }

  serve::GrapeService& service = *owned;
  service.run_until_drained();
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
              "revocations, %zu board(s) dead, makespan %.3f s\n",
              static_cast<unsigned long long>(st.rounds),
              static_cast<unsigned long long>(st.completed),
              static_cast<unsigned long long>(st.failed),
              static_cast<unsigned long long>(st.quarantined),
              static_cast<unsigned long long>(st.rejected),
              static_cast<unsigned long long>(st.preemptions),
              static_cast<unsigned long long>(st.revocations), st.boards_dead,
              st.makespan_s);
  if (drained_early) {
    std::printf("service: drained on SIGTERM; resume with --recover\n");
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
  std::fprintf(stderr, "grape6_serve: error: %s\n", e.what());
  obs::export_flight_json(g_flightrec_out);
  return 1;
}
