#include "grape/board.hpp"
#include "grape/chip.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace g6 {
namespace {

std::vector<JParticle> random_particles(std::size_t n, Rng& rng) {
  std::vector<JParticle> js(n);
  for (auto& p : js) {
    p.mass = 1.0 / static_cast<double>(n);
    p.pos = {rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
    p.vel = {rng.gaussian(), rng.gaussian(), rng.gaussian()};
  }
  return js;
}

IParticlePacket probe(const NumberFormats& fmt, std::uint32_t index = 1000) {
  PredictedState s;
  s.index = index;
  s.pos = {0.1, 0.2, -0.1};
  s.vel = {0.0, 0.0, 0.0};
  return quantize_i_particle(s, fmt);
}

/// A whole-board pass as the engine runs it: every module pass, then the
/// board's summation unit. Returns the board's cycles.
std::uint64_t board_pass(ProcessorBoard& board, std::span<const IParticlePacket> iblock,
                         const BlockExponents& e, std::vector<HwPartialWords>& sum) {
  const std::size_t n = iblock.size();
  const std::vector<BlockExponents> exps(n, e);
  std::vector<HwPartialWords> words(board.module_count() * n);
  std::vector<std::uint64_t> cycles(board.module_count());
  for (std::size_t m = 0; m < board.module_count(); ++m) {
    cycles[m] = board.module(m).run_pass(0.0, iblock, exps, 1e-4,
                                         {words.data() + m * n, n});
  }
  sum.resize(n);
  return ProcessorBoard::sum_modules(cycles, words, {}, sum, {});
}

TEST(Chip, CycleCountFollowsVmpFormula) {
  MachineConfig mc;
  NumberFormats fmt;
  Chip chip(mc, fmt);
  Rng rng(3);
  const auto js = random_particles(100, rng);
  for (std::size_t i = 0; i < js.size(); ++i) {
    chip.write(i, quantize_j_particle(js[i], static_cast<std::uint32_t>(i), fmt));
  }

  std::vector<IParticlePacket> iblock(48, probe(fmt));
  std::vector<HwAccumulators> out(48);
  for (auto& a : out) a.reset({4, 8, 4});
  const std::uint64_t cycles = chip.run_pass(0.0, iblock, 1e-4, out);
  EXPECT_EQ(cycles, 8ull * 100ull + mc.pipeline_latency_cycles);
  EXPECT_EQ(chip.total_interactions(), 100ull * 48ull);
}

TEST(Chip, CycleCountIndependentOfBlockFill) {
  // Hardware does not run faster for half-filled virtual pipelines.
  MachineConfig mc;
  NumberFormats fmt;
  Chip chip(mc, fmt);
  Rng rng(4);
  const auto js = random_particles(64, rng);
  for (std::size_t i = 0; i < js.size(); ++i) {
    chip.write(i, quantize_j_particle(js[i], static_cast<std::uint32_t>(i), fmt));
  }
  std::vector<IParticlePacket> one(1, probe(fmt));
  std::vector<HwAccumulators> out1(1);
  out1[0].reset({4, 8, 4});
  std::vector<IParticlePacket> full(48, probe(fmt));
  std::vector<HwAccumulators> out48(48);
  for (auto& a : out48) a.reset({4, 8, 4});
  EXPECT_EQ(chip.run_pass(0.0, one, 1e-4, out1),
            chip.run_pass(0.0, full, 1e-4, out48));
}

TEST(Chip, RejectsOversizedBlock) {
  MachineConfig mc;
  NumberFormats fmt;
  Chip chip(mc, fmt);
  std::vector<IParticlePacket> iblock(49, probe(fmt));
  std::vector<HwAccumulators> out(49);
  EXPECT_THROW(chip.run_pass(0.0, iblock, 0.0, out), PreconditionError);
}

TEST(Board, StructureMatchesGrape6) {
  MachineConfig mc;
  NumberFormats fmt;
  ProcessorBoard board(mc, fmt);
  EXPECT_EQ(board.module_count(), 8u);
  EXPECT_EQ(board.chip_count(), 32u);
}

TEST(Board, PartitionInvariance) {
  // The same j-set on 1 chip vs spread over 32 chips must give the SAME
  // bits — the block floating-point reproducibility property (Sec 3.4).
  MachineConfig mc;
  NumberFormats fmt;
  Rng rng(5);
  const auto js = random_particles(256, rng);

  // All on one chip.
  ProcessorBoard lump(mc, fmt);
  for (std::size_t i = 0; i < js.size(); ++i) {
    lump.chip(0).write(i, quantize_j_particle(js[i], static_cast<std::uint32_t>(i), fmt));
  }
  // Spread round-robin.
  ProcessorBoard spread(mc, fmt);
  std::vector<std::size_t> next(spread.chip_count(), 0);
  for (std::size_t i = 0; i < js.size(); ++i) {
    const std::size_t c = i % spread.chip_count();
    spread.chip(c).write(next[c]++,
                         quantize_j_particle(js[i], static_cast<std::uint32_t>(i), fmt));
  }

  std::vector<IParticlePacket> iblock(5, probe(fmt));
  for (std::uint32_t k = 0; k < iblock.size(); ++k) iblock[k] = probe(fmt, 1000 + k);
  std::vector<HwPartialWords> a, b;
  board_pass(lump, iblock, {4, 10, 4}, a);
  board_pass(spread, iblock, {4, 10, 4}, b);

  for (std::size_t k = 0; k < iblock.size(); ++k) {
    for (int w = 0; w < HwPartialWords::kWords; ++w) {
      EXPECT_EQ(a[k].mant[w], b[k].mant[w]);
    }
  }
}

TEST(Board, CyclesDominatedBySlowestChip) {
  MachineConfig mc;
  NumberFormats fmt;
  ProcessorBoard board(mc, fmt);
  Rng rng(6);
  const auto js = random_particles(10, rng);
  // Unbalanced: all j on chip 0.
  for (std::size_t i = 0; i < js.size(); ++i) {
    board.chip(0).write(i, quantize_j_particle(js[i], static_cast<std::uint32_t>(i), fmt));
  }
  std::vector<IParticlePacket> iblock(1, probe(fmt));
  std::vector<HwPartialWords> out;
  const std::uint64_t cycles = board_pass(board, iblock, {4, 8, 4}, out);
  // chip time + module summation + board summation
  EXPECT_EQ(cycles, 8ull * 10ull + mc.pipeline_latency_cycles +
                        2ull * kSummationLatencyCycles);
}

TEST(NetworkBoard, ReduceMergesExactly) {
  HwAccumulators board;
  board.reset({4, 4, 4});
  board.acc[0].add(0.25);
  const std::vector<HwPartialWords> sums(4, board.words());
  std::vector<HwAccumulators> out(1);
  out[0].reset({4, 4, 4});
  NetworkBoard::reduce(sums, out);
  EXPECT_DOUBLE_EQ(out[0].acc[0].value(), 1.0);
}

}  // namespace
}  // namespace g6
