// Pipeline crosscheck: the batched kernel every chip pass runs
// (Chip::run_pass -> predict_batch + interact_module, a one-chip module;
// module_crosscheck_test.cpp covers modules of several) must be BIT-IDENTICAL
// to a reference pass built from the scalar PredictorUnit::predict and
// ForcePipeline::interact on every observable hardware word — accumulator
// mantissas, block exponents, overflow flags, neighbor FIFO contents and
// order, and the nearest-neighbor register — for every number-format
// preset, with and without neighbor collection, over a sweep of chip
// shapes, and at any thread count. This is the contract that lets the
// kernel change without invalidating a single recorded snapshot.
//
// The kernel puts W i-slots in lanes (W = 4 where the CPU runs x86-64-v3
// code, else 2; a partial last group is padded with dead lanes) and
// broadcasts each predicted j to them, with the block floating-point adds
// in the lanes too; a lane that leaves the format's normal range takes
// that j through the scalar ops, in place. The corpus below drives both
// paths, their mix within one accumulator, the r^2 = 0 clamp and the
// precondition errors. The tests without a width run the host's default
// kernel; the KernelWidth suite forces each width through a test hook
// (and skips four lanes on a CPU without them). A committed
// golden fixture (data/pipeline_golden.txt) pins the accumulator words and
// neighbor lists themselves, so a change that moved the kernel and the
// scalar reference together would still fail.
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
#include <fstream>
#include <limits>
#include <span>
#include <sstream>
#include <string>
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

/// A freshly reset result bank, slot k on exps[k] (every slot on
/// {4, 8, 4} when `exps` is empty); `fifo` == 0 collects no neighbors.
PassResult reset_bank(std::size_t n_i, std::size_t fifo,
                      std::span<const BlockExponents> exps = {}) {
  PassResult r;
  r.acc.resize(n_i);
  for (std::size_t k = 0; k < n_i; ++k) {
    r.acc[k].reset(exps.empty() ? BlockExponents{4, 8, 4} : exps[k]);
  }
  r.nb.resize(fifo == 0 ? 0 : n_i);
  for (auto& nb : r.nb) nb.reset(fifo);
  return r;
}

struct PassPair {
  PassResult kernel;
  PassResult reference;
};

/// `chip` loaded with the first `n_j` of `js`.
void load_chip(Chip& chip, const NumberFormats& fmt,
               const std::vector<JParticle>& js, std::size_t n_j) {
  chip.reserve_slots(n_j);
  for (std::size_t s = 0; s < n_j; ++s) {
    chip.write(s, quantize_j_particle(js[s], static_cast<std::uint32_t>(s), fmt));
  }
}

/// An i-block of the first `n_i` of `js` (i-slots below the chip's j
/// count exercise the self-interaction cut).
std::vector<IParticlePacket> make_iblock(const NumberFormats& fmt,
                                         const std::vector<JParticle>& js,
                                         std::size_t n_i, std::size_t fifo,
                                         double h2) {
  std::vector<IParticlePacket> iblock;
  for (std::size_t k = 0; k < n_i; ++k) {
    PredictedState s;
    s.index = static_cast<std::uint32_t>(k);
    s.pos = js[k].pos;
    s.vel = js[k].vel;
    iblock.push_back(quantize_i_particle(s, fmt));
    if (fifo != 0) iblock.back().h2 = h2;
  }
  return iblock;
}

/// A chip loaded with the first `n_j` of `js`, driven over `iblock` once
/// through Chip::run_pass and once through reference_pass, each from its
/// own reset bank (reset_bank's `exps`).
PassPair run_iblock(const MachineConfig& mc, const NumberFormats& fmt,
                    const std::vector<JParticle>& js, std::size_t n_j,
                    const std::vector<IParticlePacket>& iblock, double t,
                    double eps2, std::size_t fifo,
                    std::span<const BlockExponents> exps = {}) {
  Chip chip(mc, fmt);
  load_chip(chip, fmt, js, n_j);
  PassPair p{reset_bank(iblock.size(), fifo, exps),
             reset_bank(iblock.size(), fifo, exps)};
  chip.run_pass(t, iblock, eps2, p.kernel.acc, p.kernel.nb);
  reference_pass(chip, mc, fmt, t, iblock, eps2, p.reference);
  return p;
}

/// run_iblock over the first `n_i` of `js`.
PassPair run_both(const MachineConfig& mc, const NumberFormats& fmt,
                  const std::vector<JParticle>& js, std::size_t n_j,
                  std::size_t n_i, double t, double eps2, std::size_t fifo,
                  double h2) {
  return run_iblock(mc, fmt, js, n_j, make_iblock(fmt, js, n_i, fifo, h2), t, eps2,
                    fifo);
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
    for (int w = 0; w < HwPartialWords::kWords; ++w) {
      EXPECT_EQ(a.acc[k].word(w).overflow(), b.acc[k].word(w).overflow())
          << "overflow i=" << k << " word=" << w;
    }
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
  // chips leaves about one j-particle per chip), odd counts that end in a
  // half-filled lane pair, j counts either side of 32 and of the 64-slot
  // block, partial and full i-blocks; prediction both at and past the stored
  // block time; and a chip FIFO shallower than the host's recorders, deep
  // enough neighbor lists to overflow it.
  MachineConfig mc;
  mc.neighbor_buffer_per_chip = 8;
  const NumberFormats fmt;
  auto js = random_js(512, 0x5a5e);
  for (auto& p : js) p.t0 = 0.125;
  bool overflowed = false;
  for (std::size_t n_j :
       {0u, 1u, 2u, 3u, 5u, 31u, 32u, 33u, 63u, 64u, 65u, 96u, 512u}) {
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

/// Formats whose ranges are narrow enough that some, not all, kernel
/// blocks and predictor slot pairs leave the normal range and take the
/// scalar recompute.
NumberFormats flushing_formats() {  // tiny dx^2, dx*dv and dt*x flush
  NumberFormats f;
  f.pipeline = FloatFormat(12, -20, 63);
  f.velocity = f.pipeline;
  f.predictor = f.pipeline;
  return f;
}
NumberFormats saturating_formats() {  // rinv^2 saturates for r < ~0.18
  NumberFormats f;
  f.pipeline = FloatFormat(12, -62, 5);
  f.velocity = f.pipeline;
  f.predictor = FloatFormat(12, -62, 1);  // vel + correction past 2
  return f;
}

TEST(PipelineCrosscheck, LaneFallbackBlocksMatchReference) {
  const auto js = random_js(192, 0xfa11);
  const MachineConfig mc;
  for (const auto& fmt : {flushing_formats(), saturating_formats()}) {
    for (double t : {0.125, 0x1p-18}) {  // the short step flushes dt * x
      for (std::size_t fifo : {0u, 8u}) {
        for (std::size_t n_j : {5u, 64u, 65u, 192u}) {
          SCOPED_TRACE(::testing::Message()
                       << "frac=" << fmt.pipeline.frac_bits() << " t=" << t
                       << " fifo=" << fifo << " n_j=" << n_j);
          const auto p = run_both(mc, fmt, js, n_j, mc.i_parallelism(), t,
                                  1e-4, fifo, 0.5);
          expect_bit_identical(p.kernel, p.reference);
        }
      }
    }
  }
}

/// js with slot 1 moved onto slot 0's position: the pair (i=0, j=1) has
/// dx = 0, so with eps = 0 its r^2 is exactly zero.
std::vector<JParticle> with_coincident_pair(std::size_t n, std::uint64_t seed) {
  auto js = random_js(n, seed);
  js[1].pos = js[0].pos;
  return js;
}

TEST(PipelineCrosscheck, ZeroSofteningCoincidentPairClamps) {
  const auto js = with_coincident_pair(70, 0xc01d);
  const MachineConfig mc;
  for (const auto& fmt : {NumberFormats{}, NumberFormats::exact()}) {
    for (std::size_t fifo : {0u, 8u}) {
      const auto p = run_both(mc, fmt, js, js.size(), 7, 0.0, 0.0, fifo, 0.5);
      expect_bit_identical(p.kernel, p.reference);
    }
  }
}

TEST(PipelineCrosscheck, BadSofteningRaisesTheScalarError) {
  // A negative eps^2 makes r^2 negative for close pairs and a NaN eps^2
  // makes every r^2 NaN: the rsqrt precondition fails. The kernel must
  // raise the very PreconditionError the scalar unit raises.
  const auto js = random_js(40, 0xbad);
  const MachineConfig mc;
  const NumberFormats fmt;
  Chip chip(mc, fmt);
  load_chip(chip, fmt, js, js.size());
  const auto iblock = make_iblock(fmt, js, 3, 8, 0.5);
  for (double eps2 : {-1.0, std::numeric_limits<double>::quiet_NaN()}) {
    std::string kernel_error;
    std::string reference_error;
    PassResult kernel = reset_bank(iblock.size(), 8);
    PassResult reference = reset_bank(iblock.size(), 8);
    try {
      chip.run_pass(0.0, iblock, eps2, kernel.acc, kernel.nb);
    } catch (const PreconditionError& e) {
      kernel_error = e.what();
    }
    try {
      reference_pass(chip, mc, fmt, 0.0, iblock, eps2, reference);
    } catch (const PreconditionError& e) {
      reference_error = e.what();
    }
    EXPECT_NE(kernel_error.find("rsqrt of negative operand"), std::string::npos)
        << "eps2=" << eps2 << ": " << kernel_error;
    EXPECT_EQ(kernel_error, reference_error) << "eps2=" << eps2;
  }
}

/// One line per i-slot: the seven accumulator mantissas, the overflow
/// flag, and (neighbors on) the nearest register and the FIFO contents.
void dump_pass(std::ostream& os, const std::string& label, const PassResult& r) {
  os << "case " << label << '\n';
  for (std::size_t k = 0; k < r.acc.size(); ++k) {
    const HwAccumulators& a = r.acc[k];
    os << "i" << k;
    for (int d = 0; d < 3; ++d) os << ' ' << a.acc[d].mantissa();
    for (int d = 0; d < 3; ++d) os << ' ' << a.jerk[d].mantissa();
    os << ' ' << a.pot.mantissa() << " ovf=" << a.overflow();
    if (!r.nb.empty()) {
      const HwNeighborRecorder& nb = r.nb[k];
      os << " nearest=";
      if (nb.has_nearest) {
        os << nb.nearest << ':' << std::hex
           << std::bit_cast<std::uint64_t>(nb.nearest_r2) << std::dec;
      } else {
        os << '-';
      }
      os << " fifo_ovf=" << nb.overflow << " fifo=";
      for (std::size_t n = 0; n < nb.indices.size(); ++n) {
        os << (n == 0 ? "" : ",") << nb.indices[n];
      }
    }
    os << '\n';
  }
}

/// The golden corpus, run through both the kernel and the scalar
/// reference: the format presets, the fallback-forcing formats and the
/// zero-softening clamp.
void golden_corpus(std::ostream& kernel, std::ostream& reference) {
  struct Case {
    const char* label;
    NumberFormats fmt;
    std::vector<JParticle> js;
    double t;
    double eps2;
  };
  NumberFormats narrow;
  narrow.pipeline = FloatFormat(16, -62, 63);
  narrow.velocity = FloatFormat(16, -62, 63);
  narrow.predictor = FloatFormat(12, -62, 63);
  const std::vector<Case> cases = {
      {"hardware", NumberFormats{}, random_js(96, 0x5eed), 0.125, 1e-4},
      {"exact", NumberFormats::exact(), random_js(96, 0x5eed), 0.125, 1e-4},
      {"narrow", narrow, random_js(96, 0x5eed), 0.125, 1e-4},
      {"flushing", flushing_formats(), random_js(192, 0xfa11), 0.125, 1e-4},
      {"flushing-short-step", flushing_formats(), random_js(192, 0xfa11), 0x1p-18, 1e-4},
      {"saturating", saturating_formats(), random_js(192, 0xfa11), 0.125, 1e-4},
      {"eps0-hardware", NumberFormats{}, with_coincident_pair(70, 0xc01d), 0.0, 0.0},
      {"eps0-exact", NumberFormats::exact(), with_coincident_pair(70, 0xc01d), 0.0, 0.0},
  };
  const MachineConfig mc;
  for (const auto& c : cases) {
    for (std::size_t fifo : {0u, 8u}) {
      const auto p = run_both(mc, c.fmt, c.js, c.js.size(), mc.i_parallelism(),
                              c.t, c.eps2, fifo, 0.5);
      const std::string label =
          std::string(c.label) + (fifo == 0 ? "" : "/neighbors");
      dump_pass(kernel, label, p.kernel);
      dump_pass(reference, label, p.reference);
    }
  }
}

/// data/pipeline_golden.txt was written by the scalar reference path
/// before any lane kernel existed. On a mismatch the kernel's dump is
/// written next to the test binary for inspection.
void expect_golden_fixture() {
  std::ifstream in(G6_GOLDEN_FIXTURE);
  std::stringstream golden;
  golden << in.rdbuf();
  std::ostringstream kernel;
  std::ostringstream reference;
  golden_corpus(kernel, reference);
  EXPECT_EQ(reference.str(), kernel.str());
  if (kernel.str() != golden.str()) {
    std::ofstream(G6_GOLDEN_ACTUAL) << kernel.str();
    std::istringstream a(kernel.str());
    std::istringstream g(golden.str());
    std::string la;
    std::string lg;
    for (int line = 1; std::getline(g, lg); ++line) {
      if (!std::getline(a, la) || la != lg) {
        ADD_FAILURE() << G6_GOLDEN_FIXTURE << ':' << line << " differs\n  golden: "
                      << lg << "\n  kernel: " << la << "\n(kernel dump: "
                      << G6_GOLDEN_ACTUAL << ')';
        break;
      }
    }
    FAIL() << "kernel output differs from the golden fixture";
  }
}

TEST(PipelineCrosscheck, GoldenFixtureMatchesKernelAndReference) {
  expect_golden_fixture();
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

// --- each lane width ---------------------------------------------------------

/// Runs each test at the kernel lane width of its parameter: pipelines
/// built while the test runs (every Chip it makes) take that width.
class KernelWidth : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    if (GetParam() > host_lane_width()) {
      GTEST_SKIP() << "four-lane kernel needs an x86-64 CPU with AVX2, FMA and "
                      "BMI1/2 (x86-64-v3); this one runs two lanes only";
    }
    ASSERT_TRUE(test_hooks::force_lane_width(GetParam()));
    ASSERT_EQ(ForcePipeline(NumberFormats{}).lane_width(), GetParam());
  }
  void TearDown() override { test_hooks::force_lane_width(0); }
};

/// An i-block of the js at `slots`, each keeping its slot as its index (so
/// its own j-slot is the self slot).
std::vector<IParticlePacket> iblock_at(const NumberFormats& fmt,
                                       const std::vector<JParticle>& js,
                                       const std::vector<std::size_t>& slots,
                                       double h2) {
  std::vector<IParticlePacket> iblock;
  for (std::size_t k : slots) {
    PredictedState s;
    s.index = static_cast<std::uint32_t>(k);
    s.pos = js[k].pos;
    s.vel = js[k].vel;
    iblock.push_back(quantize_i_particle(s, fmt));
    iblock.back().h2 = h2;
  }
  return iblock;
}

TEST_P(KernelWidth, MatchesScalarForEveryJCount) {
  // A full i-block against every j count 1-130, in the hardware and exact
  // formats: the j loop each lane group runs.
  const auto js = random_js(130, 0x1130);
  const MachineConfig mc;
  for (const auto& fmt : {NumberFormats{}, NumberFormats::exact()}) {
    for (std::size_t n_j = 1; n_j <= js.size(); ++n_j) {
      SCOPED_TRACE(::testing::Message() << "n_j=" << n_j << " exact="
                                        << (fmt.pipeline.frac_bits() >= 52));
      const auto p = run_both(mc, fmt, js, n_j, mc.i_parallelism(), 0.125, 1e-4,
                              n_j % 2 == 0 ? 0 : 256, 0.5);
      expect_bit_identical(p.kernel, p.reference);
    }
  }
}

TEST_P(KernelWidth, MatchesScalarForEveryIBlockSize) {
  // Every i-block size 1-48 — every partial last lane group — against j
  // counts around the lane and loop boundaries, in the hardware and exact
  // formats.
  const auto js = random_js(65, 0x1b10c);
  const MachineConfig mc;
  for (const auto& fmt : {NumberFormats{}, NumberFormats::exact()}) {
    for (std::size_t n_i = 1; n_i <= mc.i_parallelism(); ++n_i) {
      for (std::size_t n_j : {0u, 1u, 2u, 3u, 5u, 32u, 33u, 64u, 65u}) {
        SCOPED_TRACE(::testing::Message() << "n_i=" << n_i << " n_j=" << n_j
                                          << " exact="
                                          << (fmt.pipeline.frac_bits() >= 52));
        const auto p = run_both(mc, fmt, js, n_j, n_i, 0.125, 1e-4,
                                n_i % 2 == 0 ? 0 : 256, 0.5);
        expect_bit_identical(p.kernel, p.reference);
      }
    }
  }
}

TEST_P(KernelWidth, SelfSlotAtEveryLanePosition) {
  // Every i-slot's own particle sits in the j-memory, so the self slot
  // comes up at every lane of every group, in full groups and in partial
  // last groups of every size, starting at different j-slots.
  const auto js = random_js(67, 0x5e1f);
  const MachineConfig mc;
  for (std::size_t n_i : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 9u, 45u, 46u, 47u, 48u}) {
    for (std::size_t first : {0u, 1u, 19u}) {
      std::vector<std::size_t> slots;
      for (std::size_t k = first; k < first + n_i; ++k) slots.push_back(k);
      SCOPED_TRACE(::testing::Message() << "n_i=" << n_i << " first=" << first);
      const NumberFormats fmt;
      const auto p = run_iblock(mc, fmt, js, js.size(), iblock_at(fmt, js, slots, 0.5),
                                0.125, 1e-4, 256);
      expect_bit_identical(p.kernel, p.reference);
      for (std::size_t k = 0; k < n_i; ++k) {
        for (std::uint32_t idx : p.kernel.nb[k].indices) EXPECT_NE(idx, slots[k]);
      }
    }
  }
}

TEST_P(KernelWidth, FlaggedLaneAtEveryPosition) {
  // Seven i-particles on a ring (a full group and a partial one at either
  // width) and j-particles well outside it, in a format whose rinv^2
  // saturates below r ~0.18: nothing flags until one j sits next to one
  // i-slot. That lane flags — at every lane position, at the first and at
  // the last j — and takes that j through the scalar ops in place, while
  // the other lanes of its group stay on the lane path.
  NumberFormats fmt;
  fmt.pipeline = FloatFormat(12, -62, 5);
  fmt.velocity = fmt.pipeline;
  fmt.predictor = fmt.pipeline;
  const double near = 0.05;
  ASSERT_EQ(fmt.pipeline.quantize(1.0 / (near * near)), fmt.pipeline.max_value());
  Rng rng(0xf1a9);
  std::vector<JParticle> base(40);
  for (auto& p : base) {
    p.mass = 1.0 / 128.0;
    const double r = rng.uniform(1.5, 1.9);
    const double phi = rng.uniform(0.0, 6.0);
    p.pos = {r * std::cos(phi), r * std::sin(phi), rng.uniform(-0.1, 0.1)};
    p.vel = {rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)};
  }
  std::vector<IParticlePacket> iblock;
  for (std::uint32_t k = 0; k < 7; ++k) {
    PredictedState s;
    s.index = 1000 + k;  // not a j-slot: no self slot
    const double phi = 0.9 * k;
    s.pos = {0.7 * std::cos(phi), 0.7 * std::sin(phi), 0.0};
    iblock.push_back(quantize_i_particle(s, fmt));
    iblock.back().h2 = 0.5;
  }
  const MachineConfig mc;
  for (std::size_t lane = 0; lane < iblock.size(); ++lane) {
    for (std::size_t at : {std::size_t{0}, base.size() - 1}) {
      SCOPED_TRACE(::testing::Message() << "near slot " << lane << " j " << at);
      auto js = base;
      const double phi = 0.9 * static_cast<double>(lane);
      js[at].pos = {0.7 * std::cos(phi) + near, 0.7 * std::sin(phi), 0.0};
      const auto p = run_iblock(mc, fmt, js, js.size(), iblock, 0.0, 1e-6, 8);
      expect_bit_identical(p.kernel, p.reference);
      ASSERT_TRUE(p.kernel.nb[lane].has_nearest);
      EXPECT_EQ(p.kernel.nb[lane].nearest, at);
    }
  }
}

TEST_P(KernelWidth, NeighborFifoOverflowMatchesReference) {
  // Per-slot neighbor radii and a chip FIFO of 8: the slots with wide radii
  // overflow early, the narrow ones never do, within the same lane groups.
  const auto js = random_js(130, 0xf1f0);
  MachineConfig mc;
  mc.neighbor_buffer_per_chip = 8;
  const NumberFormats fmt;
  auto iblock = make_iblock(fmt, js, 7, 256, 0.0);
  for (std::size_t k = 0; k < iblock.size(); ++k) {
    iblock[k].h2 = k % 2 == 0 ? 16.0 : 1e-6;
  }
  const auto p = run_iblock(mc, fmt, js, js.size(), iblock, 0.125, 1e-4, 256);
  expect_bit_identical(p.kernel, p.reference);
  for (std::size_t k = 0; k < iblock.size(); ++k) {
    EXPECT_EQ(p.kernel.nb[k].overflow, k % 2 == 0) << k;
    EXPECT_EQ(p.kernel.nb[k].indices.size(), k % 2 == 0 ? 8u : 0u) << k;
  }
}

TEST_P(KernelWidth, PerSlotExponentsAndOverflow) {
  // Each slot of a lane group on its own block exponents; slot 5 with its
  // acc words below and its pot word above the window where the grid scale
  // is an exact power of two (the ldexp fallback, whose group runs scalar);
  // slot 9 with a pot exponent so small that its sum overflows halfway
  // through the j stream while its acc and jerk words and its lane
  // neighbours' words do not.
  const auto js = random_js(64, 0xe4b5);
  const MachineConfig mc;
  const NumberFormats fmt;
  const auto iblock = make_iblock(fmt, js, 13, 0, 0.0);
  std::vector<BlockExponents> exps(iblock.size());
  for (std::size_t k = 0; k < exps.size(); ++k) {
    const int e = static_cast<int>(k % 5);
    exps[k] = {8 + e, 10 + e, 4 + e};
  }
  exps[5] = {1100, 10, -1100};
  exps[9].pot = -8;
  const auto p = run_iblock(mc, fmt, js, js.size(), iblock, 0.125, 1e-4, 0, exps);
  expect_bit_identical(p.kernel, p.reference);
  EXPECT_TRUE(p.reference.acc[9].pot.overflow());
  EXPECT_NE(p.reference.acc[9].pot.mantissa(), 0);
  for (int w = 0; w < 6; ++w) EXPECT_FALSE(p.reference.acc[9].word(w).overflow()) << w;
  for (std::size_t k : {8u, 10u, 11u}) EXPECT_FALSE(p.reference.acc[k].overflow()) << k;
  EXPECT_TRUE(p.reference.acc[5].pot.overflow());
  EXPECT_EQ(p.reference.acc[5].acc[0].mantissa(), 0);
}

TEST_P(KernelWidth, GoldenFixtureMatchesKernelAndReference) { expect_golden_fixture(); }

INSTANTIATE_TEST_SUITE_P(Lanes, KernelWidth, ::testing::Values(2, 4),
                         [](const ::testing::TestParamInfo<int>& i) {
                           return "W" + std::to_string(i.param);
                         });

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
