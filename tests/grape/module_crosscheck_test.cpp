// Module crosscheck: ProcessorModule::run_pass — one kernel call for all
// the module's chips, each i-slot lane group set up once, the chips' j
// run inside it in chip order and each chip's partial merged into the
// module's words in the lanes — must be BIT-IDENTICAL to the hardware's
// own reduction: every chip's scalar pass (PredictorUnit::predict and
// ForcePipeline::interact, from words reset on the block exponents, behind
// the chip's neighbor FIFO, through its output-fault hook) merged into the
// module's words with HwPartialWords::merge in chip order. The merge's
// overflow flag depends on that order (BlockFloatAccumulator::
// add_overflows), so the corpus includes sums where only the chip-order
// merge overflows, and where exactly one chip's own partial does.
//
// Every test runs at each kernel lane width the host runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fault/injector.hpp"
#include "grape/board.hpp"
#include "util/rng.hpp"

namespace g6 {
namespace {

struct ModuleResult {
  std::vector<HwPartialWords> words;
  std::vector<HwNeighborRecorder> nb;  ///< empty: no neighbor collection
};

/// A result bank of `n` slots; `fifo` == 0 collects no neighbors.
ModuleResult fresh(std::size_t n, std::size_t fifo) {
  ModuleResult r;
  r.words.resize(n);
  r.nb.resize(fifo == 0 ? 0 : n);
  for (auto& nb : r.nb) nb.reset(fifo);
  return r;
}

/// The module's chips loaded chip-major from `js`: chip c holds counts[c]
/// of them, each keeping its position in `js` as its index.
void load(ProcessorModule& module, const NumberFormats& fmt,
          const std::vector<JParticle>& js, const std::vector<std::size_t>& counts) {
  ASSERT_EQ(module.chip_count(), counts.size());
  std::size_t next = 0;
  for (std::size_t c = 0; c < counts.size(); ++c) {
    module.chip(c).clear_memory();
    for (std::size_t s = 0; s < counts[c]; ++s, ++next) {
      module.chip(c).write(
          s, quantize_j_particle(js[next], static_cast<std::uint32_t>(next), fmt));
    }
  }
}

ModuleResult run_module(ProcessorModule& module, double t,
                        std::span<const IParticlePacket> iblock,
                        std::span<const BlockExponents> exps, double eps2,
                        std::size_t fifo) {
  ModuleResult r = fresh(iblock.size(), fifo);
  module.run_pass(t, iblock, exps, eps2, r.words, r.nb);
  return r;
}

/// The reference: chip by chip, the scalar units from words reset on
/// `exps`, a recorder per chip clamped to its FIFO depth, the output-fault
/// hook of `injector` (chip c as flat id c) on a chip that holds a j, then
/// the module's merge in chip order. `chip_overflow[c]` reports whether
/// chip c's own partial overflowed anywhere.
ModuleResult reference(const ProcessorModule& module, const MachineConfig& mc,
                       const NumberFormats& fmt, double t,
                       std::span<const IParticlePacket> iblock,
                       std::span<const BlockExponents> exps, double eps2,
                       std::size_t fifo, fault::FaultInjector* injector = nullptr,
                       std::vector<bool>* chip_overflow = nullptr) {
  const PredictorUnit predictor(fmt);
  const ForcePipeline pipeline(fmt);
  const std::size_t n = iblock.size();
  ModuleResult r = fresh(n, fifo);
  if (chip_overflow != nullptr) chip_overflow->assign(module.chip_count(), false);
  for (std::size_t c = 0; c < module.chip_count(); ++c) {
    const Chip& chip = module.chip(c);
    std::vector<HwAccumulators> acc(n);
    for (std::size_t k = 0; k < n; ++k) acc[k].reset(exps[k]);
    ModuleResult chip_nb = fresh(n, std::min(fifo, mc.neighbor_buffer_per_chip));
    for (std::size_t s = 0; s < chip.j_count(); ++s) {
      const PredictorUnit::Predicted pj = predictor.predict(chip.stored(s), t);
      for (std::size_t k = 0; k < n; ++k) {
        pipeline.interact(pj, iblock[k], eps2, acc[k],
                          chip_nb.nb.empty() ? nullptr : &chip_nb.nb[k]);
      }
    }
    if (injector != nullptr && chip.j_count() > 0) {
      injector->apply_pass_faults(t, static_cast<int>(c), acc);
    }
    for (std::size_t k = 0; k < n; ++k) {
      if (chip_overflow != nullptr && acc[k].overflow()) (*chip_overflow)[c] = true;
      r.words[k].merge(acc[k].words());
      if (!r.nb.empty()) r.nb[k].merge(chip_nb.nb[k]);
    }
  }
  return r;
}

void expect_identical(const ModuleResult& kernel, const ModuleResult& ref) {
  ASSERT_EQ(kernel.words.size(), ref.words.size());
  for (std::size_t k = 0; k < ref.words.size(); ++k) {
    for (int w = 0; w < HwPartialWords::kWords; ++w) {
      EXPECT_EQ(kernel.words[k].mant[w], ref.words[k].mant[w])
          << "slot " << k << " word " << w;
    }
    EXPECT_EQ(kernel.words[k].overflow, ref.words[k].overflow) << "slot " << k;
  }
  ASSERT_EQ(kernel.nb.size(), ref.nb.size());
  for (std::size_t k = 0; k < ref.nb.size(); ++k) {
    EXPECT_EQ(kernel.nb[k].indices, ref.nb[k].indices) << "slot " << k;
    EXPECT_EQ(kernel.nb[k].overflow, ref.nb[k].overflow) << "slot " << k;
    EXPECT_EQ(kernel.nb[k].has_nearest, ref.nb[k].has_nearest) << "slot " << k;
    EXPECT_EQ(kernel.nb[k].nearest, ref.nb[k].nearest) << "slot " << k;
    EXPECT_EQ(kernel.nb[k].nearest_r2, ref.nb[k].nearest_r2) << "slot " << k;
  }
}

std::vector<JParticle> random_js(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<JParticle> js(n);
  for (auto& p : js) {
    p.mass = 1.0 / static_cast<double>(n);
    p.pos = {rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
    p.vel = {rng.gaussian(), rng.gaussian(), rng.gaussian()};
    p.acc = {rng.gaussian(), rng.gaussian(), rng.gaussian()};
    p.jerk = {rng.gaussian(), rng.gaussian(), rng.gaussian()};
  }
  return js;
}

/// `n` i-slots from `js` starting at `first` (those below the j count are
/// their own j: the self-interaction cut), each with neighbor radius^2
/// `h2`.
std::vector<IParticlePacket> iblock_of(const NumberFormats& fmt,
                                       const std::vector<JParticle>& js,
                                       std::size_t first, std::size_t n, double h2) {
  std::vector<IParticlePacket> iblock;
  for (std::size_t k = first; k < first + n; ++k) {
    PredictedState s;
    s.index = static_cast<std::uint32_t>(k);
    s.pos = js[k].pos;
    s.vel = js[k].vel;
    iblock.push_back(quantize_i_particle(s, fmt));
    iblock.back().h2 = h2;
  }
  return iblock;
}

/// Per-slot block exponents around {4, 8, 4}, so slots of one lane group
/// sit on different grids.
std::vector<BlockExponents> varied_exps(std::size_t n) {
  std::vector<BlockExponents> exps(n);
  for (std::size_t k = 0; k < n; ++k) {
    const int e = static_cast<int>(k % 3);
    exps[k] = {4 + e, 8 - e, 4 + 2 * e};
  }
  return exps;
}

class ModuleWidth : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    if (GetParam() > host_lane_width()) {
      GTEST_SKIP() << "four-lane kernel needs an x86-64 CPU with AVX2, FMA and "
                      "BMI1/2 (x86-64-v3); this one runs two lanes only";
    }
    ASSERT_TRUE(test_hooks::force_lane_width(GetParam()));
    ASSERT_EQ(ForcePipeline(NumberFormats{}).lane_width(), GetParam());
    ASSERT_EQ(PredictorUnit(NumberFormats{}).lane_width(), GetParam());
  }
  void TearDown() override { test_hooks::force_lane_width(0); }
};

TEST_P(ModuleWidth, ChipShapesBlockSizesAndNeighbors) {
  // Five chips holding 0, 1, 2, 3 and 33 j (empty and nearly empty chips,
  // a lane group's j pair spanning chips, a long chip) and four holding
  // two each (serve_volatile's shape), against every block size class of
  // the lane groups, with and without neighbor lists. The chip FIFO is 4
  // deep: only the 33-j chip can overflow it.
  const auto js = random_js(160, 0x30d1);
  const NumberFormats fmt;
  const std::vector<std::vector<std::size_t>> layouts = {
      {0, 1, 2, 3, 33}, {33, 3, 0, 2, 1}, {2, 2, 2, 2}, {1, 0, 0, 1}};
  bool fifo_overflowed = false;
  for (const auto& counts : layouts) {
    MachineConfig mc;
    mc.chips_per_module = counts.size();
    mc.neighbor_buffer_per_chip = 4;
    ProcessorModule module(mc, fmt);
    load(module, fmt, js, counts);
    for (std::size_t ni : {1u, 2u, 3u, 5u, 13u, 48u}) {
      for (std::size_t fifo : {0u, 256u}) {
        for (std::size_t first : {0u, 60u}) {
          SCOPED_TRACE(::testing::Message()
                       << "chips=" << counts.size() << " first j count=" << counts[0]
                       << " ni=" << ni << " fifo=" << fifo << " first=" << first);
          const auto iblock = iblock_of(fmt, js, first, ni, 0.8);
          const auto exps = varied_exps(ni);
          const auto kernel = run_module(module, 0.125, iblock, exps, 1e-4, fifo);
          expect_identical(kernel,
                           reference(module, mc, fmt, 0.125, iblock, exps, 1e-4, fifo));
          for (const auto& nb : kernel.nb) {
            fifo_overflowed = fifo_overflowed || nb.overflow;
          }
        }
      }
    }
  }
  EXPECT_TRUE(fifo_overflowed);
}

TEST_P(ModuleWidth, ScalarFormatsAndExponentsOutsideTheWindow) {
  // Formats the lane ops do not run (the exact A/B mode runs the lanes
  // without rounding; a format reaching the subnormal range runs scalar),
  // and a slot whose exponents put its grid scale outside the exact window
  // (its lane group runs scalar): each through the same chip-order merge.
  const auto js = random_js(64, 0x5ca1);
  NumberFormats below_lanes;
  below_lanes.pipeline = FloatFormat(24, -1022, 1023);
  MachineConfig mc;
  mc.neighbor_buffer_per_chip = 4;
  for (const auto& fmt : {NumberFormats::exact(), below_lanes, NumberFormats{}}) {
    ProcessorModule module(mc, fmt);
    load(module, fmt, js, {5, 0, 33, 2});
    for (std::size_t ni : {3u, 13u}) {
      SCOPED_TRACE(::testing::Message() << "frac=" << fmt.pipeline.frac_bits()
                                        << " ni=" << ni);
      const auto iblock = iblock_of(fmt, js, 0, ni, 0.8);
      auto exps = varied_exps(ni);
      exps[1] = {1100, 8, -1100};
      const auto kernel = run_module(module, 0.125, iblock, exps, 1e-4, 256);
      expect_identical(kernel,
                       reference(module, mc, fmt, 0.125, iblock, exps, 1e-4, 256));
    }
  }
}

TEST_P(ModuleWidth, MergeOverflowFollowsChipOrder) {
  // Four i-slots at the origin and j-particles of equal mass at x = +1
  // (`+`) or -1 (`-`), chip by chip: every acc-x addend has the same
  // magnitude v. Slots 0 and 2 take acc exponents that put v on the grid
  // at X in [2^61, 2^62) — two addends stay below 2^63, four overflow —
  // and slots 1 and 3 exponents three higher, where nothing overflows.
  const NumberFormats fmt;
  const double eps2 = 1e-4;
  const auto j_at = [&](double x) {
    JParticle p;
    p.mass = 1.0 / 16.0;
    p.pos = {x, 0.0, 0.0};
    return p;
  };
  std::vector<IParticlePacket> iblock;
  for (std::uint32_t k = 0; k < 4; ++k) {
    PredictedState s;
    s.index = 1000 + k;
    iblock.push_back(quantize_i_particle(s, fmt));
  }
  // v from the scalar unit itself, on a roomy grid.
  HwAccumulators probe;
  probe.reset({30, 30, 30});
  const PredictorUnit predictor(fmt);
  const StoredJParticle plus = quantize_j_particle(j_at(1.0), 0, fmt);
  ForcePipeline(fmt).interact(predictor.predict(plus, 0.0), iblock[0], eps2, probe);
  const double v = probe.acc[0].value();
  ASSERT_GT(v, 0.0);
  const int tight = std::ilogb(v) - 5;
  std::vector<BlockExponents> exps(4);
  for (std::size_t k = 0; k < 4; ++k) {
    exps[k] = {k % 2 == 0 ? tight : tight + 3, 30, 30};
  }

  // a = b = 2X, c = -2X: (a + b) overflows, keeps a, and + c gives 0;
  // merged in any other order nothing would overflow. No chip's own
  // partial overflows.
  const std::vector<std::string> merge_only = {"++", "++", "--", ""};
  // Chip 0's five addends overflow its own partial (3X + X wraps); the
  // merges of -X and +X after it do not.
  const std::vector<std::string> one_chip = {"+++++", "-", "+", ""};
  for (const auto& layout : {merge_only, one_chip}) {
    MachineConfig mc;
    mc.chips_per_module = layout.size();
    ProcessorModule module(mc, fmt);
    std::vector<JParticle> js;
    std::vector<std::size_t> counts;
    for (const auto& chip : layout) {
      for (char sign : chip) js.push_back(j_at(sign == '+' ? 1.0 : -1.0));
      counts.push_back(chip.size());
    }
    load(module, fmt, js, counts);
    std::vector<bool> chip_overflow;
    const auto ref =
        reference(module, mc, fmt, 0.0, iblock, exps, eps2, 0, nullptr, &chip_overflow);
    expect_identical(run_module(module, 0.0, iblock, exps, eps2, 0), ref);
    for (std::size_t k = 0; k < 4; ++k) {
      EXPECT_EQ((ref.words[k].overflow & 1u) != 0, k % 2 == 0) << "slot " << k;
    }
    if (layout == merge_only) {
      EXPECT_EQ(chip_overflow, std::vector<bool>(4, false));
      EXPECT_EQ(ref.words[0].mant[0], 0);
    } else {
      EXPECT_EQ(chip_overflow, (std::vector<bool>{true, false, false, false}));
    }
  }
}

TEST_P(ModuleWidth, FlaggedLaneInChipTwo) {
  // Seven i-slots on a ring and j-particles well outside it, in a format
  // whose rinv^2 saturates below r ~0.18; one j of chip 2 sits next to one
  // slot, at every lane position and at the chip's first and last j. That
  // lane takes that j through the scalar ops, inside chip 2's partial.
  NumberFormats fmt;
  fmt.pipeline = FloatFormat(12, -62, 5);
  fmt.velocity = fmt.pipeline;
  fmt.predictor = fmt.pipeline;
  const double near = 0.05;
  Rng rng(0xf1a9);
  std::vector<JParticle> base(24);
  for (auto& p : base) {
    p.mass = 1.0 / 64.0;
    const double r = rng.uniform(1.5, 1.9);
    const double phi = rng.uniform(0.0, 6.0);
    p.pos = {r * std::cos(phi), r * std::sin(phi), rng.uniform(-0.1, 0.1)};
    p.vel = {rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)};
  }
  std::vector<IParticlePacket> iblock;
  for (std::uint32_t k = 0; k < 7; ++k) {
    PredictedState s;
    s.index = 1000 + k;
    const double phi = 0.9 * k;
    s.pos = {0.7 * std::cos(phi), 0.7 * std::sin(phi), 0.0};
    iblock.push_back(quantize_i_particle(s, fmt));
    iblock.back().h2 = 0.5;
  }
  const std::vector<std::size_t> counts = {5, 6, 7, 6};  // chip 2: j 11..17
  MachineConfig mc;
  mc.neighbor_buffer_per_chip = 8;
  ProcessorModule module(mc, fmt);
  const auto exps = varied_exps(iblock.size());
  for (std::size_t lane = 0; lane < iblock.size(); ++lane) {
    for (std::size_t at : {11u, 17u}) {
      SCOPED_TRACE(::testing::Message() << "near slot " << lane << " j " << at);
      auto js = base;
      const double phi = 0.9 * static_cast<double>(lane);
      js[at].pos = {0.7 * std::cos(phi) + near, 0.7 * std::sin(phi), 0.0};
      load(module, fmt, js, counts);
      const auto kernel = run_module(module, 0.0, iblock, exps, 1e-6, 256);
      expect_identical(kernel,
                       reference(module, mc, fmt, 0.0, iblock, exps, 1e-6, 256));
      ASSERT_TRUE(kernel.nb[lane].has_nearest);
      EXPECT_EQ(kernel.nb[lane].nearest, at);
    }
  }
}

TEST_P(ModuleWidth, InjectorFaultsEachChipBeforeTheMerge) {
  // An injector on every chip: chip 1 stuck, transient glitches on the
  // rest, chip 2 empty (it stays quiet). Twin injectors on one seed drive
  // the module and the reference, pass after pass, so the words and the
  // RNG stream must agree.
  const auto js = random_js(64, 0xfa17);
  const NumberFormats fmt;
  MachineConfig mc;
  fault::FaultPlan plan;
  plan.compute_rate = 0.6;
  plan.stuck_chips = {1};
  fault::FaultInjector attached(plan);
  fault::FaultInjector twin(plan);
  ProcessorModule module(mc, fmt);
  load(module, fmt, js, {3, 2, 0, 5});
  for (std::size_t c = 0; c < module.chip_count(); ++c) {
    module.chip(c).attach_fault(&attached, static_cast<int>(c));
  }
  for (int pass = 0; pass < 12; ++pass) {
    const std::size_t ni = pass % 2 == 0 ? 13 : 3;
    SCOPED_TRACE(::testing::Message() << "pass " << pass << " ni=" << ni);
    const auto iblock = iblock_of(fmt, js, 20, ni, 0.8);
    const auto exps = varied_exps(ni);
    const double t = 0.125 * pass;
    const auto kernel = run_module(module, t, iblock, exps, 1e-4, 256);
    expect_identical(kernel,
                     reference(module, mc, fmt, t, iblock, exps, 1e-4, 256, &twin));
  }
  EXPECT_EQ(attached.counts().stuck_passes, twin.counts().stuck_passes);
  EXPECT_EQ(attached.counts().compute_glitches, twin.counts().compute_glitches);
  EXPECT_GT(attached.counts().compute_glitches, 0u);
  EXPECT_EQ(attached.counts().stuck_passes, 12u);
}

INSTANTIATE_TEST_SUITE_P(Lanes, ModuleWidth, ::testing::Values(2, 4),
                         [](const ::testing::TestParamInfo<int>& i) {
                           return "W" + std::to_string(i.param);
                         });

}  // namespace
}  // namespace g6
