// integrate — one in-process Hermite integration on the emulated GRAPE-6.
//
// Set-up builds a Plummer model, the engine, and the initial forces, and
// checkpoints the t = 0 state to the work directory. The timed loop then
// resumes that checkpoint and integrates a fixed segment, over and over,
// until --seconds of resume + integration have run. Every segment must
// end on the committed digest, virtual GRAPE seconds and interaction
// count of its input variant: the repository's bit-identity contract.
// Nearly all host time is chip passes, so the pipeline kernel and the
// exec pool dominate; wire, serve and the journal are bypassed.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "exec/thread_pool.hpp"
#include "fault/checkpoint.hpp"
#include "grape/engine.hpp"
#include "hermite/integrator.hpp"
#include "nbody/models.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using g6::obs::monotonic_seconds;

g6::MachineConfig machine() {
  g6::MachineConfig mc = g6::MachineConfig::single_host();
  mc.boards_per_host = IntegrateShape::kBoards;
  return mc;
}

std::unique_ptr<g6::GrapeForceEngine> make_engine() {
  return std::make_unique<g6::GrapeForceEngine>(machine(), g6::NumberFormats{},
                                                IntegrateShape::kEps);
}

std::string run_tag(std::size_t variant) {
  return "perfbench integrate " + reference_config() +
         " variant=" + std::to_string(variant);
}

/// What one segment produced: the output checks and the Eq 10 split.
struct Segment {
  std::string digest;
  g6::GrapeHostStats stats;
  g6::obs::Eq10Accumulator eq10;
  double recover_s = 0.0;
  double run_s = 0.0;
  double mean_block = 0.0;
};

/// A live integration resumed from the t = 0 checkpoint file.
struct Resumed {
  std::unique_ptr<g6::GrapeForceEngine> engine;
  std::unique_ptr<g6::HermiteIntegrator> integ;
};

Resumed resume(const std::string& path) {
  const g6::fault::RunCheckpoint cp = g6::fault::load_checkpoint(path);
  Resumed r;
  r.engine = make_engine();
  r.integ = std::make_unique<g6::HermiteIntegrator>(cp.state, *r.engine);
  // load_particles inside the restore constructor resets the exponent
  // cache; it comes back afterwards (the --resume rule).
  r.engine->exponents() = cp.exponents;
  return r;
}

/// Integrate one segment: resume the t = 0 checkpoint, then evolve.
Segment run_segment(const std::string& ckpt, Resumed& keep) {
  Segment s;
  const double t0 = monotonic_seconds();
  Resumed r = resume(ckpt);
  const double t1 = monotonic_seconds();
  r.integ->evolve(IntegrateShape::kTSegment);
  const double t2 = monotonic_seconds();
  s.recover_s = t1 - t0;
  s.run_s = t2 - t1;
  s.stats = r.engine->stats();
  s.eq10 = r.integ->eq10();
  const double bs = static_cast<double>(r.integ->total_blocksteps());
  s.mean_block = bs > 0 ? static_cast<double>(r.integ->total_steps()) / bs : 0.0;
  s.digest = snapshot_digest(r.integ->state_at_current_time(), r.integ->time());
  keep = std::move(r);
  return s;
}

}  // namespace

Result run_integrate(const Options& opt, const References& refs) {
  Result res;
  if (refs.integrate.size() != IntegrateShape::kVariants) {
    throw std::runtime_error("references: wrong integrate variant count");
  }
  const IntegrateRef& ref = refs.integrate[opt.seed % IntegrateShape::kVariants];
  const std::string fs = require_disk_dir(opt.work_dir);
  require_fits("integrate", IntegrateShape::kThreads, 0);
  std::printf("integrate: N=%zu boards=%zu segment=%g variant=%zu pool=%u "
              "work=%s (%s)\n",
              IntegrateShape::kN, IntegrateShape::kBoards,
              IntegrateShape::kTSegment, ref.variant, IntegrateShape::kThreads,
              opt.work_dir.c_str(), fs.c_str());

  // --- set-up, kSetupReps times; the last one's checkpoint is used -------
  const double setup_start = monotonic_seconds();
  g6::exec::ThreadPool::set_global_threads(IntegrateShape::kThreads);
  const double pool_s = monotonic_seconds() - setup_start;
  const std::string ckpt = opt.work_dir + "/integrate_t0.ckpt";
  std::vector<double> setup_s, model_s, init_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double a = monotonic_seconds();
    const g6::ParticleSet ic = integrate_model(ref.variant);
    const double b = monotonic_seconds();
    auto engine = make_engine();
    g6::HermiteIntegrator integ(ic, *engine);
    const double c = monotonic_seconds();
    g6::fault::RunCheckpoint cp;
    cp.run_tag = run_tag(ref.variant);
    cp.state = integ.save_state();
    cp.exponents = engine->exponents();
    g6::fault::save_checkpoint(ckpt, cp);
    const double d = monotonic_seconds();
    setup_s.push_back(d - a + pool_s);
    model_s.push_back(b - a);
    init_s.push_back(c - b);
  }

  // --- timed loop ------------------------------------------------------
  g6::obs::MetricsRegistry& reg = g6::obs::MetricsRegistry::global();
  const std::uint64_t tasks0 = reg.counter("exec.tasks").value();
  const std::uint64_t steals0 = reg.counter("exec.steals").value();
  const double cpu0 = process_cpu_seconds();
  std::vector<Segment> segs;
  double busy = 0.0;
  double loop_wall = 0.0;
  Resumed last;
  while (busy < opt.seconds) {
    const double a = monotonic_seconds();
    // The last segment's live engine stays for the traced probes.
    Segment s = run_segment(ckpt, last);
    loop_wall += monotonic_seconds() - a;
    busy += s.recover_s + s.run_s;
    res.attempt();
    bool ok = true;
    if (s.digest != ref.digest) {
      res.fail("segment " + std::to_string(segs.size()) + ": digest " +
               s.digest + " != reference " + ref.digest);
      ok = false;
    }
    if (double_bits(s.stats.grape_seconds) != ref.grape_virtual_s_bits) {
      res.fail("segment " + std::to_string(segs.size()) +
               ": virtual GRAPE seconds " + double_bits(s.stats.grape_seconds) +
               " != reference " + ref.grape_virtual_s_bits);
      ok = false;
    }
    if (s.stats.interactions != ref.interactions) {
      res.fail("segment " + std::to_string(segs.size()) + ": interactions " +
               std::to_string(s.stats.interactions) + " != reference " +
               std::to_string(ref.interactions));
      ok = false;
    }
    if (!ok) res.miss();
    segs.push_back(std::move(s));
  }
  const double cpu_s = process_cpu_seconds() - cpu0;
  const auto nseg = static_cast<double>(segs.size());

  std::vector<double> run_s, rec_s;
  double run_total = 0.0;
  double rec_total = 0.0;
  std::uint64_t interactions = 0;
  for (const Segment& s : segs) {
    run_s.push_back(s.run_s);
    rec_s.push_back(s.recover_s);
    run_total += s.run_s;
    rec_total += s.recover_s;
    interactions += s.stats.interactions;
  }
  const Tail tail = tail_percentile(run_s);
  std::printf("integrate: %zu segments, %.4f s integrating + %.4f s resuming; "
              "tail = p%.1f of %zu samples (%zu beyond)\n",
              segs.size(), run_total, rec_total, tail.percentile, tail.samples,
              tail.beyond);

  if (!opt.trace) {
    res.set("setup_s", median(setup_s), "s");
    res.set("interactions_per_s", static_cast<double>(interactions) / run_total,
            "1/s");
    res.set("jobs_per_s", nseg / (run_total + rec_total), "1/s");
    res.set("job_p50_s", median(run_s), "s");
    res.set("job_tail_s", tail.value, "s");
    res.set("recover_s", median(rec_s), "s");
    res.set("completed_frac",
            static_cast<double>(res.attempted() - res.failed()) /
                static_cast<double>(res.attempted()),
            "ratio");
    res.set("peak_rss_mb", peak_rss_mb(), "MB");
    return res;
  }

  // --- per-layer metrics (traced run) -----------------------------------
  g6::obs::Eq10Accumulator eq;
  g6::GrapeHostStats st;
  double block_sum = 0.0;
  for (const Segment& s : segs) {
    eq.merge(s.eq10);
    st.passes += s.stats.passes;
    st.retries += s.stats.retries;
    block_sum += s.mean_block;
  }
  const double mean_block = block_sum / nseg;
  res.set("nbody.model_s", median(model_s), "s");
  res.set("hermite.init_force_s", median(init_s), "s");
  res.set("hermite.host_s", eq.host_s / nseg, "s");
  res.set("hermite.jsend_s", eq.dma_s / nseg, "s");
  res.set("hermite.block_size_mean", mean_block, "count");
  res.set("grape.force_s", eq.grape_s / nseg, "s");
  res.set("grape.kernel_ns_per_interaction",
          kernel_ns_per_interaction(*last.engine, *last.integ, IntegrateShape::kEps,
                                    mean_block), "ns");
  res.set("grape.passes", static_cast<double>(st.passes) / nseg, "count");
  res.set("grape.retries", static_cast<double>(st.retries) / nseg, "count");
  res.set("grape.useful_pass_frac",
          st.passes ? 1.0 - static_cast<double>(st.retries) /
                                static_cast<double>(st.passes)
                    : 1.0,
          "ratio");
  res.set("exec.cpu_util", cpu_s / (loop_wall * IntegrateShape::kThreads), "ratio");
  res.set("exec.tasks",
          static_cast<double>(reg.counter("exec.tasks").value() - tasks0) / nseg,
          "count");
  res.set("exec.steals",
          static_cast<double>(reg.counter("exec.steals").value() - steals0) /
              nseg,
          "count");
  {
    // integrate bypasses wire and serve: their layers come from a short
    // serve_volatile pass (which measures the journal on a short
    // serve_durable pass), so every traced run reports every layer.
    Options p = opt;
    p.workload = "serve_volatile";
    p.seconds = 2.0;
    p.work_dir = opt.work_dir + "/serve_probe";
    const Result v = run_serve(p, refs, /*durable=*/false);
    for (const std::string& f : v.failures()) res.fail("serve probe: " + f);
    res.copy_metrics(v, "wire.");
    res.copy_metrics(v, "serve.");
  }
  res.set("fault.checkpoint_write_s",
          checkpoint_write_s(opt.work_dir + "/probe.ckpt",
                             last.integ->save_state(), last.engine->exponents()),
          "s");
  res.set("trace.interactions_per_s",
          static_cast<double>(interactions) / run_total, "1/s");

  // Layer reconciliation: the Eq 10 terms must cover the timed step loop.
  const double layers = eq.host_s + eq.dma_s + eq.grape_s;
  const double gap = std::abs(layers - run_total) / run_total;
  std::printf("integrate: layers host %.4f + jsend %.4f + grape %.4f = %.4f s "
              "vs step loop %.4f s (%.2f%% apart)\n",
              eq.host_s, eq.dma_s, eq.grape_s, layers, run_total, 100.0 * gap);
  if (gap > 0.05) {
    res.fail("layer sum differs from the step loop by more than 5%");
  }
  const char* dominant = eq.grape_s >= eq.host_s && eq.grape_s >= eq.dma_s
                             ? "grape"
                             : (eq.host_s >= eq.dma_s ? "hermite.host"
                                                      : "hermite.jsend");
  std::printf("integrate: dominant layer: %s (%.1f%% of the step loop)\n",
              dominant,
              100.0 * std::max({eq.grape_s, eq.host_s, eq.dma_s}) / run_total);
  return res;
}

References compute_references() {
  References refs;
  refs.config = reference_config();
  g6::exec::ThreadPool::set_global_threads(IntegrateShape::kThreads);
  for (std::size_t v = 0; v < IntegrateShape::kVariants; ++v) {
    // The digest comes from an uninterrupted run straight from the model.
    const g6::ParticleSet ic = integrate_model(v);
    auto engine = make_engine();
    g6::HermiteIntegrator integ(ic, *engine);
    const g6::HermiteState t0 = integ.save_state();
    const std::vector<g6::BlockExponents> exps0 = engine->exponents();
    integ.evolve(IntegrateShape::kTSegment);
    IntegrateRef r;
    r.variant = v;
    r.digest = snapshot_digest(integ.state_at_current_time(), integ.time());
    // The virtual-time account of a segment resumed from t = 0, as the
    // benchmark runs it; it must land on the uninterrupted run's state.
    auto resumed_engine = make_engine();
    g6::HermiteIntegrator resumed(t0, *resumed_engine);
    resumed_engine->exponents() = exps0;
    resumed.evolve(IntegrateShape::kTSegment);
    if (snapshot_digest(resumed.state_at_current_time(), resumed.time()) !=
        r.digest) {
      throw std::runtime_error("resumed segment differs from the uninterrupted run");
    }
    r.grape_virtual_s_bits = double_bits(resumed_engine->stats().grape_seconds);
    r.interactions = resumed_engine->stats().interactions;
    refs.integrate.push_back(r);
    std::printf("integrate variant %zu: %s\n", v, r.digest.c_str());
  }
  for (std::size_t k = 0; k < ServeShape::kJobPool; ++k) {
    // Standalone: the job's own engine and integrator, as grape6_run
    // would build them, with no service in between.
    const g6::serve::JobSpec spec = pool_spec(k);
    g6::Rng rng(spec.seed);
    const g6::ParticleSet ic = g6::make_plummer(spec.n, rng);
    g6::MachineConfig mc;
    mc.boards_per_host = spec.boards;
    g6::GrapeForceEngine engine(mc, g6::NumberFormats{}, spec.eps);
    g6::HermiteConfig cfg;
    cfg.eta = spec.eta;
    g6::HermiteIntegrator integ(ic, engine, cfg);
    integ.evolve(spec.t_end);
    refs.serve_pool.push_back(
        snapshot_digest(integ.state_at_current_time(), integ.time()));
    std::printf("serve pool %zu: %s\n", k, refs.serve_pool.back().c_str());
  }
  return refs;
}

}  // namespace perfbench
