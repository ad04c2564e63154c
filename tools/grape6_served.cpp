// grape6_served — the remote serving daemon (docs/SERVING.md, "Wire
// protocol").
//
// Binds a grape6-wire-v1 socket endpoint, fronts one GrapeService, and
// serves many concurrent clients: submissions ride the same admission
// controller a local run uses (a reject travels back over the wire with
// its reason verbatim), subscribed connections get streamed per-quantum
// progress instead of polling, and autoscaling jobs grow/shrink their
// board leases under queue pressure exactly as in-process runs do.
//
//   grape6_served --listen=unix:/tmp/grape6.sock
//   grape6_served --listen=tcp:127.0.0.1:0       # ephemeral port, printed
//
// The service shape comes from --manifest (its "service" section; any
// "jobs" are submitted at startup before remote ones) or defaults.
// Durable mode and crash recovery mirror grape6_serve:
//
//   grape6_served --listen=... --journal=serve.wal --checkpoint-dir=ckpts
//   grape6_served --listen=... --recover=serve.wal
//
// Lifecycle: the daemon serves until a client sends a `drain` request
// (service stops admitting; the daemon exits once all live work and
// output bytes are flushed) or SIGTERM/SIGINT (graceful drain: running
// jobs checkpoint, journal records a `drained`, resume via --recover).
//
// Outputs on exit: optional per-job snapshots (<out>_<name>.snap,
// byte-identical to standalone runs — the wire_identity ctest cmp's
// them), a grape6-serve-report-v1 report, and metrics JSON including the
// wire.* instruments.
//
// Exit codes: 0 = every job completed; 3 = some failed/rejected/
// quarantined; 1 = driver error (bad endpoint, malformed journal, ...).

#include <atomic>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/grape6.hpp"

namespace {

using namespace g6;

std::atomic<bool> g_stop{false};

extern "C" void handle_stop_signal(int) {
  g_stop.store(true, std::memory_order_relaxed);
}

std::string endpoint_string(const wire::Endpoint& ep) {
  if (ep.kind == wire::Endpoint::Kind::kUnix) return "unix:" + ep.path;
  return "tcp:" + ep.host + ":" + std::to_string(ep.port);
}

}  // namespace

int main(int argc, char** argv) try {
  Cli cli(argc, argv);
  const std::string listen = cli.get_string(
      "listen", "unix:grape6_served.sock",
      "endpoint to serve on (unix:<path> or tcp:<host>:<port>; tcp port 0 "
      "picks an ephemeral port, printed at startup)");
  const std::string manifest_path = cli.get_string(
      "manifest", "",
      "optional manifest: service shape + jobs submitted at startup");
  const std::string recover_path = cli.get_string(
      "recover", "",
      "recover service state from this write-ahead journal");
  const std::string out =
      cli.get_string("out", "grape6_served", "snapshot prefix");
  const bool snapshots = cli.get_bool(
      "snapshots", false, "write <out>_<name>.snap for completed jobs");
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
  const auto threads = static_cast<unsigned>(cli.get_int(
      "threads", 0, "exec pool threads (0 = auto: $G6_EXEC_THREADS, then "
                    "hardware)"));
  if (cli.finish()) return 0;

  if (!manifest_path.empty() && !recover_path.empty()) {
    std::fprintf(stderr,
                 "error: --manifest and --recover are exclusive\n");
    return 1;
  }
  if (threads > 0) exec::ThreadPool::set_global_threads(threads);
  std::signal(SIGTERM, handle_stop_signal);
  std::signal(SIGINT, handle_stop_signal);

  std::unique_ptr<serve::GrapeService> owned;
  if (!recover_path.empty()) {
    serve::RecoveryInfo info;
    owned = serve::GrapeService::recover(recover_path, &info, &g_stop);
    std::printf("grape6_served: recovered from %s: %zu record(s)%s, "
                "%zu live, %zu terminal\n",
                recover_path.c_str(),
                static_cast<std::size_t>(info.journal_records),
                info.torn_tail ? " (torn tail dropped)" : "",
                static_cast<std::size_t>(info.jobs_restored),
                static_cast<std::size_t>(info.jobs_already_terminal));
  } else {
    serve::Manifest manifest;
    if (!manifest_path.empty()) {
      manifest = serve::load_manifest(manifest_path);
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
    for (const serve::JobSpec& spec : manifest.jobs) {
      const serve::SubmitResult r = owned->submit(spec);
      if (!r) {
        std::printf("  rejected preload '%s' (%s): %s\n", spec.name.c_str(),
                    serve::reject_reason_name(r.reason), r.message.c_str());
      }
    }
  }
  serve::GrapeService& service = *owned;

  wire::WireServer server(service, listen);
  std::printf("grape6_served: %zu-board machine listening on %s%s\n",
              service.config().pool_boards(),
              endpoint_string(server.endpoint()).c_str(),
              journal_path.empty() ? "" : " (durable)");
  std::fflush(stdout);  // the CI harness waits for this line

  server.run(&g_stop);

  const wire::WireServerStats& ws = server.stats();
  std::printf("grape6_served: served %zu connection(s), %zu request(s), "
              "%zu event(s), %zu frame(s) in / %zu out, %zu protocol "
              "error(s)\n",
              static_cast<std::size_t>(ws.connections),
              static_cast<std::size_t>(ws.requests),
              static_cast<std::size_t>(ws.events),
              static_cast<std::size_t>(ws.frames_in),
              static_cast<std::size_t>(ws.frames_out),
              static_cast<std::size_t>(ws.protocol_errors));

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

  const serve::ServiceStats& st = service.stats();
  std::printf("grape6_served: %llu rounds, %llu completed, %llu failed, "
              "%llu quarantined, %llu rejected, %llu resize(s)\n",
              static_cast<unsigned long long>(st.rounds),
              static_cast<unsigned long long>(st.completed),
              static_cast<unsigned long long>(st.failed),
              static_cast<unsigned long long>(st.quarantined),
              static_cast<unsigned long long>(st.rejected),
              static_cast<unsigned long long>(st.resizes));
  if (drained_early) {
    std::printf("grape6_served: drained on signal; resume with --recover\n");
  }

  if (!report_out.empty()) {
    serve::write_service_report(report_out, service, snapshot_files);
  }
  obs::export_metrics_json(metrics_out, &st.eq10);

  const bool all_completed =
      st.failed == 0 && st.rejected == 0 && st.quarantined == 0;
  return all_completed ? 0 : 3;
} catch (const std::exception& e) {
  std::fprintf(stderr, "grape6_served: error: %s\n", e.what());
  return 1;
}
