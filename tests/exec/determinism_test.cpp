// The determinism contract of docs/EXECUTION.md, end to end: the same
// physics, bit for bit, no matter how many threads the global pool runs —
// for raw GRAPE force evaluations, for the direct-summation engine, and
// for a long Hermite integration with the async submit/wait path live.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "exec/thread_pool.hpp"
#include "grape/engine.hpp"
#include "hermite/direct_engine.hpp"
#include "hermite/integrator.hpp"
#include "nbody/models.hpp"
#include "util/rng.hpp"

namespace g6 {
namespace {

std::vector<JParticle> plummer_j(std::size_t n, unsigned seed) {
  Rng rng(seed);
  const ParticleSet s = make_plummer(n, rng);
  std::vector<JParticle> js(n);
  for (std::size_t i = 0; i < n; ++i) {
    js[i].mass = s[i].mass;
    js[i].pos = s[i].pos;
    js[i].vel = s[i].vel;
  }
  return js;
}

std::vector<PredictedState> as_block(std::span<const JParticle> js) {
  std::vector<PredictedState> block(js.size());
  for (std::size_t i = 0; i < js.size(); ++i) {
    block[i] = {js[i].pos, js[i].vel, js[i].mass, static_cast<std::uint32_t>(i)};
  }
  return block;
}

void push_bits(std::vector<std::uint64_t>& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  out.push_back(bits);
}

void push_bits(std::vector<std::uint64_t>& out, const Vec3& v) {
  push_bits(out, v.x);
  push_bits(out, v.y);
  push_bits(out, v.z);
}

std::vector<std::uint64_t> force_bits(std::span<const Force> forces) {
  std::vector<std::uint64_t> out;
  out.reserve(forces.size() * 7);
  for (const Force& f : forces) {
    push_bits(out, f.acc);
    push_bits(out, f.jerk);
    push_bits(out, f.pot);
  }
  return out;
}

/// Restores the global pool to automatic sizing when the test ends.
struct GlobalThreadsGuard {
  ~GlobalThreadsGuard() { exec::ThreadPool::set_global_threads(0); }
};

std::vector<std::uint64_t> grape_force_bits(unsigned threads) {
  exec::ThreadPool::set_global_threads(threads);
  const auto js = plummer_j(256, 91);
  GrapeForceEngine hw(MachineConfig::single_host(), NumberFormats{},
                      1.0 / 64.0);
  hw.load_particles(js);
  const auto block = as_block(js);
  std::vector<Force> f(js.size());
  hw.compute_forces(0.0, block, f);
  return force_bits(f);
}

TEST(ExecDeterminism, GrapeForcesBitIdenticalAcrossThreadCounts) {
  GlobalThreadsGuard guard;
  const auto serial = grape_force_bits(1);
  EXPECT_EQ(grape_force_bits(2), serial);
  EXPECT_EQ(grape_force_bits(8), serial);
}

/// Forces and neighbor lists of one first call, flattened for comparison.
struct NeighborRun {
  std::vector<std::uint64_t> force;
  std::vector<NeighborResult> nb;
  std::uint64_t retries = 0;
};

NeighborRun grape_neighbor_run(unsigned threads) {
  exec::ThreadPool::set_global_threads(threads);
  auto js = plummer_j(256, 37);
  // Heavy particles: forces far above the fresh-guess exponents' headroom,
  // so the first call must take overflow retries, whose trigger is the
  // merged overflow flags.
  for (auto& p : js) p.mass *= 65536.0;
  MachineConfig mc = MachineConfig::single_host();
  mc.boards_per_host = 2;
  // 4 j-particles per chip against a 2-deep FIFO: wide radii overflow
  // every chip's list, and each merged list spans all 16 modules.
  mc.neighbor_buffer_per_chip = 2;
  GrapeForceEngine hw(mc, NumberFormats{}, 1.0 / 64.0);
  hw.load_particles(js);
  const auto block = as_block(js);
  std::vector<double> radii2(js.size());
  for (std::size_t i = 0; i < radii2.size(); ++i) {
    radii2[i] = i % 3 == 0 ? 100.0 : 0.02;
  }
  NeighborRun run;
  std::vector<Force> f(js.size());
  run.nb.resize(js.size());
  hw.compute_forces_neighbors(0.0, block, radii2, f, run.nb);
  run.force = force_bits(f);
  run.retries = hw.stats().retries;
  return run;
}

TEST(ExecDeterminism, GrapeNeighborsBitIdenticalAcrossThreadCounts) {
  GlobalThreadsGuard guard;
  const NeighborRun serial = grape_neighbor_run(1);
  ASSERT_GT(serial.retries, 0u);
  std::size_t overflowed = 0;
  for (const NeighborResult& r : serial.nb) overflowed += r.overflow ? 1 : 0;
  ASSERT_GT(overflowed, 0u);
  ASSERT_LT(overflowed, serial.nb.size());

  for (unsigned threads : {2u, 8u}) {
    const NeighborRun run = grape_neighbor_run(threads);
    EXPECT_EQ(run.force, serial.force) << threads << " threads";
    EXPECT_EQ(run.retries, serial.retries) << threads << " threads";
    ASSERT_EQ(run.nb.size(), serial.nb.size());
    for (std::size_t i = 0; i < run.nb.size(); ++i) {
      EXPECT_EQ(run.nb[i].indices, serial.nb[i].indices) << "i=" << i;
      EXPECT_EQ(run.nb[i].overflow, serial.nb[i].overflow) << "i=" << i;
      EXPECT_EQ(run.nb[i].nearest, serial.nb[i].nearest) << "i=" << i;
    }
  }
}

std::vector<std::uint64_t> direct_force_bits(unsigned threads) {
  exec::ThreadPool::set_global_threads(threads);
  const auto js = plummer_j(256, 17);
  DirectForceEngine engine(1.0 / 64.0);
  engine.load_particles(js);
  const auto block = as_block(js);
  std::vector<Force> f(js.size());
  engine.compute_forces(0.0, block, f);
  return force_bits(f);
}

TEST(ExecDeterminism, DirectForcesBitIdenticalAcrossThreadCounts) {
  GlobalThreadsGuard guard;
  const auto serial = direct_force_bits(1);
  EXPECT_EQ(direct_force_bits(2), serial);
  EXPECT_EQ(direct_force_bits(8), serial);
}

std::vector<std::uint64_t> hermite_run_bits(unsigned threads) {
  exec::ThreadPool::set_global_threads(threads);
  Rng rng(23);
  const ParticleSet s = make_plummer(64, rng);
  GrapeForceEngine hw(MachineConfig::single_host(), NumberFormats{},
                      1.0 / 64.0);
  HermiteConfig cfg;
  cfg.async_force = true;  // the overlapped submit/wait path under test
  HermiteIntegrator integ(s, hw, cfg);
  for (int step = 0; step < 200; ++step) integ.step();

  std::vector<std::uint64_t> out;
  push_bits(out, integ.time());
  out.push_back(integ.total_steps());
  for (std::size_t i = 0; i < integ.size(); ++i) {
    const JParticle& p = integ.particle(i);
    push_bits(out, p.pos);
    push_bits(out, p.vel);
    push_bits(out, p.acc);
    push_bits(out, p.jerk);
    push_bits(out, p.snap);
    push_bits(out, p.t0);
    push_bits(out, integ.timestep(i));
  }
  return out;
}

TEST(ExecDeterminism, HermiteRunBitIdenticalAcrossThreadCounts) {
  GlobalThreadsGuard guard;
  const auto serial = hermite_run_bits(1);
  EXPECT_EQ(hermite_run_bits(2), serial);
  EXPECT_EQ(hermite_run_bits(8), serial);
}

TEST(ExecDeterminism, AsyncPathMatchesSyncPath) {
  // async_force moves wall-clock only: the blocking and overlapped paths
  // must produce the same bits at the same thread count.
  GlobalThreadsGuard guard;
  exec::ThreadPool::set_global_threads(4);
  auto run = [](bool async) {
    Rng rng(29);
    const ParticleSet s = make_plummer(64, rng);
    GrapeForceEngine hw(MachineConfig::single_host(), NumberFormats{},
                        1.0 / 64.0);
    HermiteConfig cfg;
    cfg.async_force = async;
    HermiteIntegrator integ(s, hw, cfg);
    for (int step = 0; step < 100; ++step) integ.step();
    std::vector<std::uint64_t> out;
    for (std::size_t i = 0; i < integ.size(); ++i) {
      push_bits(out, integ.particle(i).pos);
      push_bits(out, integ.particle(i).vel);
    }
    return out;
  };
  EXPECT_EQ(run(true), run(false));
}

}  // namespace
}  // namespace g6
