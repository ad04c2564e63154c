#include "grape/board.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace g6 {

ProcessorModule::ProcessorModule(const MachineConfig& mc, const NumberFormats& fmt) {
  chips_.reserve(mc.chips_per_module);
  for (std::size_t i = 0; i < mc.chips_per_module; ++i) chips_.emplace_back(mc, fmt);
}

std::uint64_t ProcessorModule::run_pass(double t,
                                        std::span<const IParticlePacket> iblock,
                                        std::span<const BlockExponents> exps,
                                        double eps2,
                                        std::span<HwPartialWords> out,
                                        std::span<HwNeighborRecorder> neighbors) {
  G6_REQUIRE(exps.size() == iblock.size());
  G6_REQUIRE(out.size() == iblock.size());
  G6_REQUIRE(neighbors.empty() || neighbors.size() == iblock.size());
  const bool faults = std::any_of(chips_.begin(), chips_.end(),
                                  [](const Chip& c) { return c.takes_faults(); });
  if (!faults) {
    const ModuleWords merged{.merged = out, .exps = exps, .chips = {}};
    return Chip::run_chips(chips_, t, iblock, eps2, merged, neighbors) +
           kSummationLatencyCycles;
  }
  // Output faults hit each chip's whole-block words before the summation
  // unit sees them: the kernel leaves the chips' words apart, and they
  // merge here, in chip order.
  const std::size_t n = iblock.size();
  const std::size_t banks = chips_.size() * n;
  std::vector<HwAccumulators> words(banks);
  for (std::size_t i = 0; i < words.size(); ++i) words[i].reset(exps[i % n]);
  const ModuleWords per_chip{.merged = {}, .exps = {}, .chips = words};
  const std::uint64_t cycles =
      Chip::run_chips(chips_, t, iblock, eps2, per_chip, neighbors);
  std::fill(out.begin(), out.end(), HwPartialWords{});
  for (std::size_t i = 0; i < words.size(); ++i) out[i % n].merge(words[i].words());
  return cycles + kSummationLatencyCycles;
}

ProcessorBoard::ProcessorBoard(const MachineConfig& mc, const NumberFormats& fmt) {
  modules_.reserve(mc.modules_per_board);
  for (std::size_t i = 0; i < mc.modules_per_board; ++i) modules_.emplace_back(mc, fmt);
}

std::size_t ProcessorBoard::chip_count() const {
  std::size_t n = 0;
  for (const auto& m : modules_) n += m.chip_count();
  return n;
}

Chip& ProcessorBoard::chip(std::size_t i) {
  for (auto& m : modules_) {
    if (i < m.chip_count()) return m.chip(i);
    i -= m.chip_count();
  }
  G6_REQUIRE_MSG(false, "chip index out of range");
  return modules_.front().chip(0);  // unreachable
}

std::size_t ProcessorBoard::total_j() const {
  std::size_t n = 0;
  for (const auto& m : modules_) {
    for (std::size_t c = 0; c < m.chip_count(); ++c) n += m.chip(c).j_count();
  }
  return n;
}

std::uint64_t ProcessorBoard::sum_modules(
    std::span<const std::uint64_t> module_cycles,
    std::span<const HwPartialWords> module_words,
    std::span<const HwNeighborRecorder> module_nb,
    std::span<HwPartialWords> out, std::span<HwNeighborRecorder> neighbors) {
  const std::size_t n = out.size();
  const std::size_t words = module_cycles.size() * n;
  G6_REQUIRE(module_words.size() == words);
  G6_REQUIRE(module_nb.size() == (neighbors.empty() ? 0 : words));
  G6_REQUIRE(neighbors.empty() || neighbors.size() == n);
  std::fill(out.begin(), out.end(), HwPartialWords{});
  std::uint64_t max_cycles = 0;
  for (std::size_t m = 0; m < module_cycles.size(); ++m) {
    max_cycles = std::max(max_cycles, module_cycles[m]);
    for (std::size_t k = 0; k < n; ++k) {
      out[k].merge(module_words[m * n + k]);
      if (!neighbors.empty()) neighbors[k].merge(module_nb[m * n + k]);
    }
  }
  return max_cycles + kSummationLatencyCycles;
}

void NetworkBoard::reduce(std::span<const HwPartialWords> board_sums,
                          std::span<HwAccumulators> out) {
  const std::size_t n = out.size();
  G6_REQUIRE(n == 0 ? board_sums.empty() : board_sums.size() % n == 0);
  for (std::size_t i = 0; i < board_sums.size(); ++i) out[i % n].merge(board_sums[i]);
}

}  // namespace g6
