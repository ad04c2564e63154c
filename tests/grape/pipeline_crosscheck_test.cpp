// Pipeline crosscheck: the batched kernel every chip pass runs
// (Chip::run_pass -> predict_batch + interact_batch) must be BIT-IDENTICAL
// to a reference pass built from the scalar PredictorUnit::predict and
// ForcePipeline::interact on every observable hardware word — accumulator
// mantissas, block exponents, overflow flags, neighbor FIFO contents and
// order, and the nearest-neighbor register — for every number-format
// preset, with and without neighbor collection, over a sweep of chip
// shapes, and at any thread count. This is the contract that lets the
// kernel change without invalidating a single recorded snapshot.
//
// Also verifies the FloatFormat::quantize fast bit-manipulation path
// against quantize_ref(), its independently-derived libm oracle, over
// structured and random bit patterns (the doc comment in util/softfloat.hpp
// points here).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "exec/thread_pool.hpp"
#include "grape/chip.hpp"
#include "grape/engine.hpp"
#include "util/rng.hpp"

namespace g6 {
namespace {

std::vector<JParticle> random_js(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<JParticle> js(n);
  for (auto& p : js) {
    p.mass = 1.0 / static_cast<double>(n);
    p.pos = {rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
    p.vel = {rng.gaussian(), rng.gaussian(), rng.gaussian()};
    p.acc = {rng.gaussian(), rng.gaussian(), rng.gaussian()};
    p.jerk = {rng.gaussian(), rng.gaussian(), rng.gaussian()};
    p.snap = {rng.gaussian(), rng.gaussian(), rng.gaussian()};
  }
  return js;
}

struct PassResult {
  std::vector<HwAccumulators> acc;
  std::vector<HwNeighborRecorder> nb;
};

/// Reference chip pass: the scalar predictor and force units, slot by slot
/// in ascending order, with the same on-chip FIFO clamp Chip::run_pass
/// applies.
void reference_pass(const Chip& chip, const MachineConfig& mc,
                    const NumberFormats& fmt, double t,
                    std::span<const IParticlePacket> iblock, double eps2,
                    PassResult& r) {
  const PredictorUnit predictor(fmt);
  const ForcePipeline pipeline(fmt);
  for (auto& nb : r.nb) {
    nb.capacity = std::min(nb.capacity, mc.neighbor_buffer_per_chip);
  }
  for (std::size_t slot = 0; slot < chip.j_count(); ++slot) {
    const PredictorUnit::Predicted pj = predictor.predict(chip.stored(slot), t);
    for (std::size_t k = 0; k < iblock.size(); ++k) {
      pipeline.interact(pj, iblock[k], eps2, r.acc[k],
                        r.nb.empty() ? nullptr : &r.nb[k]);
    }
  }
}

/// A freshly reset result bank; `fifo` == 0 collects no neighbors.
PassResult reset_bank(std::size_t n_i, std::size_t fifo) {
  PassResult r;
  r.acc.resize(n_i);
  for (auto& a : r.acc) a.reset({4, 8, 4});
  r.nb.resize(fifo == 0 ? 0 : n_i);
  for (auto& nb : r.nb) nb.reset(fifo);
  return r;
}

struct PassPair {
  PassResult kernel;
  PassResult reference;
};

/// One chip loaded with the first `n_j` of `js` and an i-block of the
/// first `n_i` of `js` (i-slots below n_j exercise the self-interaction
/// cut), driven once through Chip::run_pass and once through
/// reference_pass, each from its own reset bank.
PassPair run_both(const MachineConfig& mc, const NumberFormats& fmt,
                  const std::vector<JParticle>& js, std::size_t n_j,
                  std::size_t n_i, double t, double eps2, std::size_t fifo,
                  double h2) {
  Chip chip(mc, fmt);
  chip.reserve_slots(n_j);
  for (std::size_t s = 0; s < n_j; ++s) {
    chip.write(s, quantize_j_particle(js[s], static_cast<std::uint32_t>(s), fmt));
  }
  std::vector<IParticlePacket> iblock;
  for (std::size_t k = 0; k < n_i; ++k) {
    PredictedState s;
    s.index = static_cast<std::uint32_t>(k);
    s.pos = js[k].pos;
    s.vel = js[k].vel;
    iblock.push_back(quantize_i_particle(s, fmt));
    if (fifo != 0) iblock.back().h2 = h2;
  }
  PassPair p{reset_bank(n_i, fifo), reset_bank(n_i, fifo)};
  chip.run_pass(t, iblock, eps2, p.kernel.acc, p.kernel.nb);
  reference_pass(chip, mc, fmt, t, iblock, eps2, p.reference);
  return p;
}

void expect_bit_identical(const PassResult& a, const PassResult& b) {
  ASSERT_EQ(a.acc.size(), b.acc.size());
  for (std::size_t k = 0; k < a.acc.size(); ++k) {
    for (int d = 0; d < 3; ++d) {
      EXPECT_EQ(a.acc[k].acc[d].mantissa(), b.acc[k].acc[d].mantissa())
          << "acc i=" << k << " d=" << d;
      EXPECT_EQ(a.acc[k].jerk[d].mantissa(), b.acc[k].jerk[d].mantissa())
          << "jerk i=" << k << " d=" << d;
      EXPECT_EQ(a.acc[k].acc[d].block_exp(), b.acc[k].acc[d].block_exp()) << k;
      EXPECT_EQ(a.acc[k].jerk[d].block_exp(), b.acc[k].jerk[d].block_exp()) << k;
    }
    EXPECT_EQ(a.acc[k].pot.mantissa(), b.acc[k].pot.mantissa()) << k;
    EXPECT_EQ(a.acc[k].pot.block_exp(), b.acc[k].pot.block_exp()) << k;
    EXPECT_EQ(a.acc[k].overflow(), b.acc[k].overflow()) << k;
  }
  ASSERT_EQ(a.nb.size(), b.nb.size());
  for (std::size_t k = 0; k < a.nb.size(); ++k) {
    EXPECT_EQ(a.nb[k].indices, b.nb[k].indices) << k;  // contents AND order
    EXPECT_EQ(a.nb[k].overflow, b.nb[k].overflow) << k;
    EXPECT_EQ(a.nb[k].has_nearest, b.nb[k].has_nearest) << k;
    if (a.nb[k].has_nearest && b.nb[k].has_nearest) {
      EXPECT_EQ(a.nb[k].nearest, b.nb[k].nearest) << k;
      EXPECT_EQ(a.nb[k].nearest_r2, b.nb[k].nearest_r2) << k;
    }
  }
}

TEST(PipelineCrosscheck, BitIdenticalAcrossFormatsEpsAndNeighbors) {
  const auto js = random_js(96, 0x5eed);
  const NumberFormats presets[] = {
      NumberFormats{},            // hardware formats
      NumberFormats::exact(),     // wide path (per-op rounding skipped)
      [] {                        // narrow custom format
        NumberFormats f;
        f.pipeline = FloatFormat(16, -62, 63);
        f.velocity = FloatFormat(16, -62, 63);
        f.predictor = FloatFormat(12, -62, 63);
        return f;
      }(),
  };
  const MachineConfig mc;
  Rng rng(0xe952);
  for (const auto& fmt : presets) {
    for (std::size_t fifo : {0u, 8u}) {  // tiny FIFO: overflow-flag coverage
      const double eps2 = std::pow(10.0, rng.uniform(-6, -2));
      const auto p = run_both(mc, fmt, js, js.size(), mc.i_parallelism(),
                              0.125, eps2, fifo, 0.5);
      expect_bit_identical(p.kernel, p.reference);
    }
  }
}

TEST(PipelineCrosscheck, ShapeSweepMatchesReference) {
  // Chip shapes around the kernel's loop and block boundaries: an empty
  // and a nearly empty j-memory (a small served job spread over many
  // chips leaves about one j-particle per chip), j counts either side of
  // 32, partial and full i-blocks; prediction both at and past the stored
  // block time; and a chip FIFO shallower than the host's recorders, deep
  // enough neighbor lists to overflow it.
  MachineConfig mc;
  mc.neighbor_buffer_per_chip = 8;
  const NumberFormats fmt;
  auto js = random_js(512, 0x5a5e);
  for (auto& p : js) p.t0 = 0.125;
  bool overflowed = false;
  for (std::size_t n_j : {0u, 1u, 2u, 31u, 32u, 33u, 96u, 512u}) {
    for (std::size_t n_i : {1u, 7u, 47u, 48u}) {
      for (double t : {0.125, 0.1875}) {
        for (std::size_t fifo : {0u, 256u}) {
          SCOPED_TRACE(::testing::Message() << "n_j=" << n_j << " n_i=" << n_i
                                            << " t=" << t << " fifo=" << fifo);
          const auto p = run_both(mc, fmt, js, n_j, n_i, t, 1e-4, fifo, 1.0);
          expect_bit_identical(p.kernel, p.reference);
          for (const auto& nb : p.kernel.nb) overflowed = overflowed || nb.overflow;
        }
      }
    }
  }
  EXPECT_TRUE(overflowed);
}

/// Full-engine forces on a 2-board machine.
std::vector<Force> run_engine(const std::vector<JParticle>& js) {
  MachineConfig mc;
  mc.boards_per_host = 2;
  GrapeForceEngine hw(mc, NumberFormats{}, 0.01);
  hw.load_particles(js);
  std::vector<PredictedState> block(js.size());
  for (std::size_t i = 0; i < js.size(); ++i) {
    block[i].index = static_cast<std::uint32_t>(i);
    block[i].pos = js[i].pos;
    block[i].vel = js[i].vel;
  }
  std::vector<Force> f(js.size());
  hw.compute_forces(0.0, block, f);
  hw.compute_forces(0.0, block, f);  // steady-state exponents
  return f;
}

TEST(PipelineCrosscheck, BatchedBitIdenticalAcrossThreadCounts) {
  struct GlobalThreadsGuard {
    ~GlobalThreadsGuard() { exec::ThreadPool::set_global_threads(0); }
  } guard;
  const auto js = random_js(128, 99);
  std::vector<Force> ref;
  for (unsigned threads : {1u, 2u, 8u}) {
    exec::ThreadPool::set_global_threads(threads);
    const auto f = run_engine(js);
    if (ref.empty()) {
      ref = f;
      continue;
    }
    ASSERT_EQ(ref.size(), f.size());
    for (std::size_t i = 0; i < f.size(); ++i) {
      EXPECT_EQ(ref[i].acc, f[i].acc) << "threads=" << threads << " i=" << i;
      EXPECT_EQ(ref[i].jerk, f[i].jerk) << "threads=" << threads << " i=" << i;
      EXPECT_EQ(ref[i].pot, f[i].pot) << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(PipelineCrosscheck, QuantizeFastPathMatchesReferenceOracle) {
  const FloatFormat fmts[] = {formats::pipeline(), formats::velocity(),
                              formats::predictor(), formats::ieee_double(),
                              FloatFormat(4, -8, 7), FloatFormat(16, -62, 63),
                              FloatFormat(51, -1022, 1023)};
  // Structured patterns: powers of two, halfway (tie) cases just below and
  // above, format boundaries, zeros, subnormal doubles, inf.
  std::vector<double> probes = {0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e-300,
                                -1e-300, 1e300, 5e-324, -5e-324,
                                std::numeric_limits<double>::infinity()};
  for (int e = -40; e <= 40; ++e) {
    const double p = std::ldexp(1.0, e);
    for (double m : {1.0, 1.5, 1.0 + std::ldexp(1.0, -24),
                     1.0 + std::ldexp(3.0, -25), 1.999999}) {
      probes.push_back(m * p);
      probes.push_back(-m * p);
    }
  }
  Rng rng(0xfa57);
  for (int i = 0; i < 200000; ++i) {
    // Random bit patterns spanning the full double range (skip NaN/inf,
    // which pass through by construction and break == comparison).
    const double x = std::bit_cast<double>(rng.next_u64());
    if (!std::isfinite(x)) continue;
    probes.push_back(x);
  }
  for (const auto& f : fmts) {
    for (double x : probes) {
      if (std::isnan(x)) continue;
      const double fast = f.quantize(x);
      const double ref = f.quantize_ref(x);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(fast),
                std::bit_cast<std::uint64_t>(ref))
          << "x=" << std::hexfloat << x << " frac=" << f.frac_bits();
    }
  }
}

}  // namespace
}  // namespace g6
