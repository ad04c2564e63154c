// serve_volatile / serve_durable — remote tenants over a unix socket.
//
// One process hosts a WireServer fronting a GrapeService (2 boards) on a
// private one-worker pool, and this thread plays 4 tenants, one
// connection each. The loop is closed: every tenant keeps exactly one job
// in flight and submits its next job only after the previous one's
// terminal event arrived and its final state was fetched over the wire.
// Tenant 0's connection also carries the all-jobs event subscription, so
// one thread can wait on every tenant's terminal at once.
//
// serve_durable runs the same stream with a write-ahead journal and a
// checkpoint every 4 quanta on a disk filesystem, then times
// GrapeService::recover on the finished journal and requires every
// recovered final state to be byte-identical to the served one.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "exec/thread_pool.hpp"
#include "nbody/models.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"
#include "wire/client.hpp"
#include "wire/server.hpp"

namespace perfbench {

namespace {

using g6::obs::monotonic_seconds;
namespace serve = g6::serve;
namespace wire = g6::wire;

/// Threads this workload runs: the tenant thread, the server loop, its
/// watchdog, and the global pool's workers (the server loop is the pool's
/// caller).
constexpr std::size_t kThreads = 1 + 1 + 1 + (ServeShape::kThreads - 1);

struct Paths {
  std::string socket;
  std::string journal;
  std::string checkpoints;
};

serve::ServiceConfig service_config(const Paths& p, bool durable) {
  serve::ServiceConfig cfg;
  cfg.machine.boards_per_host = ServeShape::kBoards;
  cfg.machine.hosts_per_cluster = 1;
  cfg.machine.clusters = 1;
  cfg.max_queue_depth = 64;
  cfg.quantum_blocksteps = ServeShape::kQuantum;
  if (durable) {
    cfg.durability.journal_path = p.journal;
    cfg.durability.checkpoint_dir = p.checkpoints;
    cfg.durability.checkpoint_every_quanta = ServeShape::kCheckpointEvery;
  }
  return cfg;
}

/// One finished job as its tenant saw it.
struct Finished {
  serve::JobId id = 0;
  std::size_t pool = 0;
  bool completed = false;
  double latency_s = 0.0;  ///< submit call -> terminal event, client clock
  double wait_s = 0.0;     ///< server: submit -> first quantum
  double run_s = 0.0;      ///< server: wall inside quanta
  double quanta = 0.0;
  double preemptions = 0.0;
  double resizes = 0.0;
  std::string digest;      ///< of the final state fetched over the wire
};

struct Tenant {
  std::unique_ptr<wire::RemoteClient> conn;
  std::vector<StreamJob> stream;
  std::size_t next = 0;
  bool busy = false;
  serve::JobId job = 0;
  std::size_t pool = 0;
  double submitted_at = 0.0;
};

/// A running service + server + connected tenants. The destructor stops
/// the server loop and joins it, so every exit path leaves no thread.
///
/// However the server loop ends (drain, a throw, or the watchdog raising
/// the stop flag after `timeout_s`), the loop's thread destroys the server
/// and so closes its connections: a tenant blocked on its socket then
/// reads end-of-stream, and a dead or stalled server becomes a failed
/// check instead of a hang.
class Deployment {
 public:
  Deployment(const Paths& paths, bool durable, double timeout_s)
      : service_(std::make_unique<serve::GrapeService>(
            service_config(paths, durable))),
        server_(std::make_unique<wire::WireServer>(*service_,
                                                   "unix:" + paths.socket)),
        host_(3),
        group_(host_) {
    group_.run([this] {
      struct Close {
        Deployment* d;
        ~Close() {
          d->server_stats_ = d->server_->stats();
          d->server_.reset();
          d->loop_ended_ = true;
        }
      } close{this};
      server_->run(&stop_);
    });
    group_.run([this, timeout_s] {
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::duration<double>(timeout_s);
      std::unique_lock<std::mutex> lock(watch_mu_);
      if (!watch_cv_.wait_until(lock, deadline, [this] { return watch_done_; })) {
        timed_out_ = true;
        stop_ = true;
      }
    });
    try {
      for (std::size_t t = 0; t < ServeShape::kTenants; ++t) {
        tenants_.push_back(Tenant{});
        tenants_.back().conn =
            std::make_unique<wire::RemoteClient>("unix:" + paths.socket);
      }
      tenants_[0].conn->subscribe(/*snapshots=*/false, /*all_jobs=*/true);
    } catch (...) {
      stop();  // no destructor runs for a half-built object
      throw;
    }
  }

  ~Deployment() { stop(); }

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  std::vector<Tenant>& tenants() { return tenants_; }
  std::size_t accepted() const { return accepted_; }
  void reset_accepted() { accepted_ = 0; }

  /// Submit tenant `t`'s next job; returns the submit round-trip time.
  double submit_next(std::size_t t, const std::string& prefix, Result& res) {
    Tenant& ten = tenants_[t];
    const StreamJob& sj = ten.stream[ten.next];
    const std::string name = prefix + std::to_string(t) + "-" +
                             std::to_string(ten.next);
    ++ten.next;
    ten.submitted_at = monotonic_seconds();
    serve::SubmitResult r;
    try {
      r = ten.conn->submit(stream_spec(sj, name));
    } catch (const std::exception& e) {
      res.fail(std::string("submit failed: ") + e.what());
    }
    const double rtt = monotonic_seconds() - ten.submitted_at;
    res.attempt();
    if (!r) {
      res.miss();
      ten.busy = false;
      return rtt;
    }
    ++accepted_;
    ten.busy = true;
    ten.job = r.id;
    ten.pool = sj.pool;
    owner_[r.id] = t;
    return rtt;
  }

  /// Block until the next terminal event; fetch that job's final state on
  /// its tenant's connection. nullopt only for a broken stream.
  std::optional<std::pair<std::size_t, Finished>> next_terminal(Result& res) try {
    for (;;) {
      std::optional<wire::WireEvent> ev = tenants_[0].conn->next_event(true);
      if (!ev) {
        res.fail("server closed the event stream with jobs in flight");
        return std::nullopt;
      }
      if (ev->event != "terminal") continue;
      const double now = monotonic_seconds();
      const auto id =
          static_cast<serve::JobId>(ev->root.at("job").as_number());
      const auto it = owner_.find(id);
      if (it == owner_.end() || !tenants_[it->second].busy ||
          tenants_[it->second].job != id) {
        res.fail("terminal event for job " + std::to_string(id) +
                 " that is not in flight (duplicate or unknown)");
        continue;
      }
      Tenant& ten = tenants_[it->second];
      ten.busy = false;
      Finished f;
      f.id = id;
      f.pool = ten.pool;
      f.latency_s = now - ten.submitted_at;
      const g6::obs::JsonValue& rep = ev->root.at("report");
      f.completed = rep.at("state").as_string() == "completed";
      f.wait_s = rep.at("wait_s").as_number();
      f.run_s = rep.at("run_s").as_number();
      f.quanta = rep.at("quanta").as_number();
      f.preemptions = rep.at("preemptions").as_number();
      f.resizes = rep.at("resizes").as_number();
      if (f.completed) {
        double t = 0.0;
        const g6::ParticleSet s = ten.conn->final_state(id, &t);
        f.digest = snapshot_digest(s, t);
      }
      return std::make_pair(it->second, std::move(f));
    }
  } catch (const std::exception& e) {
    res.fail(std::string("tenant connection broke: ") + e.what());
    return std::nullopt;
  }

  /// Drain, let the server loop finish, and hand back the service. A
  /// server loop that threw or stalled is a failed check in `res`.
  std::unique_ptr<serve::GrapeService> shutdown(Result& res) {
    try {
      if (!loop_ended_) tenants_[0].conn->drain();
    } catch (const std::exception& e) {
      res.fail(std::string("drain failed: ") + e.what());
      stop_ = true;
    }
    end_watch();
    joined_ = true;
    try {
      group_.wait();
    } catch (const std::exception& e) {
      res.fail(std::string("server loop failed: ") + e.what());
    }
    if (timed_out_) res.fail("server loop still running past its deadline");
    tenants_.clear();
    return std::move(service_);
  }

  const wire::WireServerStats& server_stats() const { return server_stats_; }

 private:
  /// Raise the stop flag and join the server loop (no-op once joined).
  void stop() {
    if (joined_) return;
    joined_ = true;
    stop_ = true;
    end_watch();
    try {
      group_.wait();
    } catch (...) {  // shutting down on another error already
    }
  }

  void end_watch() {
    {
      const std::lock_guard<std::mutex> lock(watch_mu_);
      watch_done_ = true;
    }
    watch_cv_.notify_all();
  }

  std::unique_ptr<serve::GrapeService> service_;
  std::unique_ptr<wire::WireServer> server_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> loop_ended_{false};
  std::atomic<bool> timed_out_{false};
  std::mutex watch_mu_;
  std::condition_variable watch_cv_;
  bool watch_done_ = false;
  g6::exec::ThreadPool host_;
  g6::exec::TaskGroup group_;
  bool joined_ = false;
  std::vector<Tenant> tenants_;
  std::map<serve::JobId, std::size_t> owner_;
  std::size_t accepted_ = 0;
  wire::WireServerStats server_stats_;
};

/// Tenant t submits jobs[t]; wait until every one has finished on its
/// reference state.
void serve_one_each(Deployment& d, const std::vector<StreamJob>& jobs,
                    const std::string& prefix, const References& refs,
                    Result& res) {
  Result scratch;  // not part of the measured stream's counts
  std::size_t left = 0;
  for (std::size_t t = 0; t < jobs.size(); ++t) {
    d.tenants()[t].stream.assign(1, jobs[t]);
    d.tenants()[t].next = 0;
    d.submit_next(t, prefix, scratch);
    if (d.tenants()[t].busy) {
      ++left;
    } else {
      res.fail(prefix + "job of tenant " + std::to_string(t) + " not accepted");
    }
  }
  for (const std::string& f : scratch.failures()) res.fail(f);
  for (; left > 0; --left) {
    const auto fin = d.next_terminal(res);
    if (!fin) return;
    if (!fin->second.completed ||
        fin->second.digest != refs.serve_pool[fin->second.pool]) {
      res.fail(prefix + "job did not complete on its reference state");
    }
  }
}

std::uint64_t counter(const char* name) {
  return g6::obs::MetricsRegistry::global().counter(name).value();
}

/// Counter values at the start of the timed window.
struct Counters {
  std::uint64_t interactions, passes, retries, tasks, steals, frames_in,
      frames_out, bytes_in, bytes_out, events, records, writes;
  static Counters now() {
    return {counter("grape.interactions"), counter("grape.passes"),
            counter("grape.retries"),      counter("exec.tasks"),
            counter("exec.steals"),        counter("wire.frames_in"),
            counter("wire.frames_out"),    counter("wire.bytes_in"),
            counter("wire.bytes_out"),     counter("wire.events"),
            counter("serve.journal.records"), counter("serve.checkpoint.writes")};
  }
};

/// Recovery of a volatile service: a restart loses the jobs in flight, so
/// it is a cold start (service, server, tenant connections) plus serving
/// one job per tenant again, until all of their terminal events are in.
/// The re-served jobs are pool entries 0..3 for every seed, so the work
/// does not move with the seed.
double reserve_lost_s(const Paths& paths, double timeout_s,
                      const References& refs, Result& res) {
  std::filesystem::remove(paths.socket);
  const double a = monotonic_seconds();
  Deployment d(paths, /*durable=*/false, timeout_s);
  std::vector<StreamJob> jobs(ServeShape::kTenants);
  for (std::size_t t = 0; t < jobs.size(); ++t) jobs[t].pool = t;
  serve_one_each(d, jobs, "lost-", refs, res);
  const double b = monotonic_seconds();
  d.shutdown(res);
  return b - a;
}

/// Rounds of one set-up and (serve_volatile) one restart per serve run;
/// setup_s and the volatile recover_s are medians over them.
constexpr int kSampleRounds = 24;

/// Mean size of the final checkpoint files (rotated generations excluded).
double mean_checkpoint_bytes(const std::string& dir) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (!e.is_regular_file() || e.path().extension() == ".prev") continue;
    sum += static_cast<double>(e.file_size());
    ++n;
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

}  // namespace

Result run_serve(const Options& opt, const References& refs, bool durable) {
  Result res;
  if (refs.serve_pool.size() != ServeShape::kJobPool) {
    throw std::runtime_error("references: wrong serve pool size");
  }
  const std::string fs = require_disk_dir(opt.work_dir);
  require_fits(opt.workload, kThreads, ServeShape::kTenants);
  Paths paths;
  // Relative to the working directory: unix socket paths are short-limited.
  paths.socket = opt.work_dir + "/serve.sock";
  paths.journal = opt.work_dir + "/serve.wal";
  paths.checkpoints = opt.work_dir + "/ckpt";
  // No deployment lives longer than its set-up plus the timed loop, which
  // stops submitting at 1.5x --seconds; past this the watchdog ends it.
  const double timeout_s = 3.0 * opt.seconds + 30.0;
  std::printf("%s: %zu tenants (closed loop), %zu boards, N=%zu t_end=%g "
              "quantum=%zu, pool=%u, %zu threads, work=%s (%s)%s\n",
              opt.workload.c_str(), ServeShape::kTenants, ServeShape::kBoards,
              ServeShape::kN, ServeShape::kTEnd, ServeShape::kQuantum,
              ServeShape::kThreads, kThreads, opt.work_dir.c_str(), fs.c_str(),
              durable ? ", journal + checkpoint every 4 quanta" : "");

  // --- set-up and restart samples ----------------------------------------
  // Half of the rounds run before the timed loop and half after it, so a
  // burst of host slowness at either end of the run moves only half of
  // the setup_s and recover_s samples.
  std::vector<double> setup_s, recover_s;
  const auto set_up = [&]() {
    std::filesystem::remove(paths.socket);
    std::filesystem::remove(paths.journal);
    reset_dir(paths.checkpoints);
    const double a = monotonic_seconds();
    g6::exec::ThreadPool::set_global_threads(ServeShape::kThreads);
    auto d = std::make_unique<Deployment>(paths, durable, timeout_s);
    // Untimed warm-up: every tenant runs pool job 0 to completion, so
    // pool threads, allocator and journal are warm before the first
    // timed job.
    serve_one_each(*d, std::vector<StreamJob>(ServeShape::kTenants), "warm-",
                   refs, res);
    setup_s.push_back(monotonic_seconds() - a);
    return d;
  };
  const auto rounds = [&](int n) {
    for (int rep = 0; rep < n && res.correct(); ++rep) {
      set_up()->shutdown(res);
      if (!durable) {
        recover_s.push_back(reserve_lost_s(paths, timeout_s, refs, res));
      }
    }
  };
  rounds(kSampleRounds / 2);
  // The deployment the timed loop runs on is one more set-up sample.
  std::unique_ptr<Deployment> dep = set_up();
  if (!res.correct()) return res;

  // --- timed closed loop -----------------------------------------------
  // A fixed number of jobs per tenant, sized so the run takes about
  // --seconds at this commit's speed: every run serves the same work, so
  // the journal that recover_s replays and the results the service keeps
  // (peak_rss_mb) do not move with the machine's speed.
  const auto per_tenant = static_cast<std::size_t>(std::max(
      1L, std::lround(opt.seconds * (durable ? ServeShape::kDurableJobsPerSecond
                                             : ServeShape::kVolatileJobsPerSecond))));
  for (std::size_t t = 0; t < dep->tenants().size(); ++t) {
    dep->tenants()[t].stream = tenant_stream(opt.seed, t, per_tenant);
    dep->tenants()[t].next = 0;
  }
  dep->reset_accepted();
  const Counters c0 = Counters::now();
  const std::uint64_t journal0 = file_bytes(paths.journal);
  const double cpu0 = process_cpu_seconds();
  const double t0 = monotonic_seconds();
  std::vector<double> rtts;
  std::size_t in_flight = 0;
  for (std::size_t t = 0; t < dep->tenants().size(); ++t) {
    rtts.push_back(dep->submit_next(t, "job-", res));
    if (dep->tenants()[t].busy) ++in_flight;
  }
  std::vector<Finished> done;
  while (in_flight > 0) {
    auto fin = dep->next_terminal(res);
    if (!fin) break;
    --in_flight;
    done.push_back(std::move(fin->second));
    // Past 1.5x the nominal length (a disk or CPU stall on the host), the
    // tenants stop early so a run still ends in bounded time.
    const Tenant& ten = dep->tenants()[fin->first];
    if (ten.next < ten.stream.size() &&
        monotonic_seconds() - t0 < 1.5 * opt.seconds) {
      rtts.push_back(dep->submit_next(fin->first, "job-", res));
      if (dep->tenants()[fin->first].busy) ++in_flight;
    }
  }
  const double window = monotonic_seconds() - t0;
  const double cpu_s = process_cpu_seconds() - cpu0;
  const Counters c1 = Counters::now();
  const std::uint64_t journal1 = file_bytes(paths.journal);
  const std::size_t dep_accepted = dep->accepted();
  std::unique_ptr<serve::GrapeService> service = dep->shutdown(res);
  const serve::ServiceStats st = service->stats();
  const wire::WireServerStats ws = dep->server_stats();
  dep.reset();
  service.reset();  // close the journal: recovery reads a finished file
  // Before the set-ups after the loop clear the checkpoint directory.
  const double ckpt_bytes = durable ? mean_checkpoint_bytes(paths.checkpoints) : 0.0;

  // --- output checks ---------------------------------------------------
  std::vector<double> latency, wait, run, overhead;
  std::size_t completed = 0;
  for (const Finished& f : done) {
    if (!f.completed) {
      res.miss();
      continue;
    }
    ++completed;
    if (f.digest != refs.serve_pool[f.pool]) {
      res.fail("job " + std::to_string(f.id) + " (pool " +
               std::to_string(f.pool) + "): final state " + f.digest +
               " != standalone " + refs.serve_pool[f.pool]);
    }
    latency.push_back(f.latency_s);
    wait.push_back(f.wait_s);
    run.push_back(f.run_s);
    overhead.push_back(f.latency_s - f.wait_s - f.run_s);
  }
  if (done.size() != dep_accepted) {
    // A job that never reached a terminal event is a miss too.
    for (std::size_t i = done.size(); i < dep_accepted; ++i) res.miss();
    res.fail("accepted " + std::to_string(dep_accepted) + " jobs but saw " +
             std::to_string(done.size()) + " terminal events");
  }
  if (ws.protocol_errors != 0) {
    res.fail(std::to_string(ws.protocol_errors) + " wire protocol errors");
  }
  for (const double o : overhead) {
    // Server wait + run sit inside the client's submit -> terminal span.
    if (o < -1e-6) {
      res.fail("wait + run exceeds client latency by " + std::to_string(-o) +
               " s");
      break;
    }
  }

  // --- recovery ---------------------------------------------------------
  if (durable) {
    const std::string base = paths.journal;
    std::vector<serve::JobId> ids;
    std::vector<std::string> served;
    for (const Finished& f : done) {
      if (!f.completed) continue;
      ids.push_back(f.id);
      served.push_back(f.digest);
    }
    for (int rep = 0; rep < 11; ++rep) {
      // Recovery appends a `recovered` record, so each replay gets a
      // pristine copy of the finished journal.
      const std::string copy = opt.work_dir + "/recover.wal";
      copy_file(base, copy);
      const double a = monotonic_seconds();
      std::unique_ptr<serve::GrapeService> rec = serve::GrapeService::recover(copy);
      recover_s.push_back(monotonic_seconds() - a);
      if (rep > 0) continue;
      for (std::size_t i = 0; i < ids.size(); ++i) {
        double t = 0.0;
        const g6::ParticleSet& s = rec->final_state(ids[i], &t);
        if (snapshot_digest(s, t) != served[i]) {
          res.fail("recovered job " + std::to_string(ids[i]) +
                   " differs from its served final state");
        }
      }
    }
  }
  // After recovery: a set-up replaces the finished journal.
  rounds(kSampleRounds - kSampleRounds / 2);

  const auto njobs = static_cast<double>(std::max<std::size_t>(completed, 1));
  const Tail tail = tail_percentile(latency);
  std::printf("%s: %zu jobs in %.3f s; latency tail = p%.1f of %zu samples "
              "(%zu beyond)\n",
              opt.workload.c_str(), done.size(), window, tail.percentile,
              tail.samples, tail.beyond);
  const double interactions =
      static_cast<double>(c1.interactions - c0.interactions);

  if (!opt.trace) {
    res.set("setup_s", median(setup_s), "s");
    res.set("interactions_per_s", interactions / window, "1/s");
    res.set("jobs_per_s", static_cast<double>(completed) / window, "1/s");
    res.set("job_p50_s", median(latency), "s");
    res.set("job_tail_s", tail.value, "s");
    res.set("recover_s", median(recover_s), "s");
    res.set("completed_frac",
            static_cast<double>(res.attempted() - res.failed()) /
                static_cast<double>(std::max<std::uint64_t>(res.attempted(), 1)),
            "ratio");
    res.set("peak_rss_mb", peak_rss_mb(), "MB");
    return res;
  }

  // --- per-layer metrics (traced run) -----------------------------------
  // Job-sized probes: the model, the initial force, the chip kernel and a
  // checkpoint write of one pool job, timed from here.
  const g6::serve::JobSpec probe = pool_spec(0);
  std::vector<double> model_s, init_s;
  for (int rep = 0; rep < 21; ++rep) {
    const double a = monotonic_seconds();
    g6::Rng rng(probe.seed);
    const g6::ParticleSet ic = g6::make_plummer(probe.n, rng);
    model_s.push_back(monotonic_seconds() - a);
  }
  g6::Rng rng(probe.seed);
  const g6::ParticleSet ic = g6::make_plummer(probe.n, rng);
  g6::MachineConfig mc;
  mc.boards_per_host = probe.boards;
  std::unique_ptr<g6::GrapeForceEngine> engine;
  std::unique_ptr<g6::HermiteIntegrator> integ;
  for (int rep = 0; rep < 11; ++rep) {
    const double a = monotonic_seconds();
    engine = std::make_unique<g6::GrapeForceEngine>(mc, g6::NumberFormats{},
                                                    probe.eps);
    integ = std::make_unique<g6::HermiteIntegrator>(ic, *engine);
    init_s.push_back(monotonic_seconds() - a);
  }

  const auto per_job = [njobs](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a) / njobs;
  };
  const double sjobs = static_cast<double>(std::max<std::uint64_t>(st.completed, 1));
  const double mean_block =
      st.eq10.blocksteps
          ? static_cast<double>(st.eq10.steps) /
                static_cast<double>(st.eq10.blocksteps)
          : 0.0;
  const double passes = per_job(c0.passes, c1.passes);
  const double retries = per_job(c0.retries, c1.retries);
  res.set("nbody.model_s", median(model_s), "s");
  res.set("hermite.init_force_s", median(init_s), "s");
  res.set("hermite.host_s", st.eq10.host_s / sjobs, "s");
  res.set("hermite.jsend_s", st.eq10.dma_s / sjobs, "s");
  res.set("hermite.block_size_mean", mean_block, "count");
  res.set("grape.force_s", st.eq10.grape_s / sjobs, "s");
  res.set("grape.kernel_ns_per_interaction",
          kernel_ns_per_interaction(*engine, *integ, probe.eps, mean_block), "ns");
  res.set("grape.passes", passes, "count");
  res.set("grape.retries", retries, "count");
  res.set("grape.useful_pass_frac", passes > 0 ? 1.0 - retries / passes : 1.0,
          "ratio");
  res.set("exec.cpu_util", cpu_s / (window * ServeShape::kThreads), "ratio");
  res.set("exec.tasks", per_job(c0.tasks, c1.tasks), "count");
  res.set("exec.steals", per_job(c0.steals, c1.steals), "count");
  res.set("wire.submit_rtt_s", median(rtts), "s");
  res.set("wire.frames_per_job",
          per_job(c0.frames_in + c0.frames_out, c1.frames_in + c1.frames_out),
          "count");
  res.set("wire.bytes_per_job",
          per_job(c0.bytes_in + c0.bytes_out, c1.bytes_in + c1.bytes_out),
          "bytes");
  res.set("wire.events_per_job", per_job(c0.events, c1.events), "count");
  std::vector<double> quanta, preempt, resizes;
  for (const Finished& f : done) {
    quanta.push_back(f.quanta);
    preempt.push_back(f.preemptions);
    resizes.push_back(f.resizes);
  }
  res.set("serve.wait_s", median(wait), "s");
  res.set("serve.run_s", median(run), "s");
  res.set("serve.overhead_s", median(overhead), "s");
  res.set("serve.quanta_per_job", mean(quanta), "count");
  res.set("serve.preemptions_per_job", mean(preempt), "count");
  res.set("serve.resizes", mean(resizes), "count");
  const double writes = per_job(c0.writes, c1.writes);
  res.set("serve.journal.records_per_job", per_job(c0.records, c1.records),
          "count");
  res.set("serve.journal.bytes_per_job", per_job(journal0, journal1), "bytes");
  res.set("serve.checkpoint.writes_per_job", writes, "count");
  res.set("serve.checkpoint.bytes_per_job",
          writes * ckpt_bytes,
          "bytes");
  if (!durable) {
    // serve_volatile bypasses the journal. Its durability layers come from
    // a short serve_durable pass over the same stream, so every traced run
    // measures them.
    Options p = opt;
    p.workload = "serve_durable";
    p.seconds = 2.0;
    p.work_dir = opt.work_dir + "/durable_probe";
    const Result d = run_serve(p, refs, /*durable=*/true);
    for (const std::string& f : d.failures()) res.fail("durable probe: " + f);
    for (const char* prefix :
         {"serve.journal.", "serve.checkpoint.", "serve.durable."}) {
      res.copy_metrics(d, prefix);
    }
  } else {
    res.set("serve.durable.jobs_per_s", static_cast<double>(completed) / window,
            "1/s");
    res.set("serve.durable.recover_s", median(recover_s), "s");
  }
  res.set("fault.checkpoint_write_s",
          checkpoint_write_s(opt.work_dir + "/probe.ckpt", integ->save_state(),
                             engine->exponents()),
          "s");
  res.set("trace.interactions_per_s", interactions / window, "1/s");

  // Layer reconciliation: latency = wait + run + overhead per job by
  // construction; the check above keeps overhead non-negative.
  const double w = median(wait), r = median(run), o = median(overhead);
  std::printf("%s: per-job median latency %.4f s = wait %.4f + run %.4f + "
              "overhead %.4f (min overhead %.2e s)\n",
              opt.workload.c_str(), median(latency), w, r, o,
              overhead.empty() ? 0.0
                               : *std::min_element(overhead.begin(),
                                                   overhead.end()));
  const char* dominant = w >= r && w >= o ? "serve.wait_s"
                         : r >= o         ? "serve.run_s"
                                          : "serve.overhead_s";
  std::printf("%s: dominant layer: %s (%.1f%% of the median latency)\n",
              opt.workload.c_str(), dominant,
              100.0 * std::max({w, r, o}) / median(latency));
  return res;
}

}  // namespace perfbench
