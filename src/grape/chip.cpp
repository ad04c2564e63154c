#include "grape/chip.hpp"

#include <algorithm>

#include "fault/injector.hpp"
#include "util/check.hpp"

namespace g6 {

std::uint64_t Chip::run_pass(double t, std::span<const IParticlePacket> iblock,
                             double eps2, std::span<HwAccumulators> out,
                             std::span<HwNeighborRecorder> neighbors) {
  G6_REQUIRE(out.size() == iblock.size());
  G6_REQUIRE(neighbors.empty() || neighbors.size() == iblock.size());
  // The on-chip FIFO depth bounds what one chip can report, regardless of
  // the (larger) host-side buffer the results are merged into.
  for (auto& nb : neighbors) {
    G6_ASSERT(nb.indices.empty());
    nb.capacity = std::min(nb.capacity, mc_.neighbor_buffer_per_chip);
  }
  const ModuleWords words{.merged = {}, .exps = {}, .chips = out};
  return run_chips({this, 1}, t, iblock, eps2, words, neighbors);
}

std::uint64_t Chip::run_chips(std::span<Chip> chips, double t,
                              std::span<const IParticlePacket> iblock, double eps2,
                              const ModuleWords& out,
                              std::span<HwNeighborRecorder> neighbors) {
  G6_REQUIRE(!chips.empty());
  const Chip& lead = chips.front();
  G6_REQUIRE(iblock.size() <= lead.i_parallelism());

  // Pass-local scratch, reused across passes on the same thread
  // (concurrent module passes run on distinct workers, and nothing below
  // yields to the pool). One predict over every chip's j-memory, broadcast
  // to the whole i-block.
  struct Scratch {
    std::vector<const JStore*> memories;
    PredictorUnit::PredictedBatch j;
  };
  static thread_local Scratch scratch;
  scratch.memories.clear();
  for (const Chip& chip : chips) scratch.memories.push_back(&chip.memory_);
  lead.predictor_.predict_batch(scratch.memories, t, scratch.j);
  lead.pipeline_.interact_module(scratch.j, iblock, eps2, out, neighbors,
                                 lead.mc_.neighbor_buffer_per_chip);

  std::uint64_t max_cycles = 0;
  for (std::size_t c = 0; c < chips.size(); ++c) {
    Chip& chip = chips[c];
    // Output-register faults (stuck pipelines, hard-dead chips, transient
    // glitches) hit after accumulation, exactly where the real chip's
    // result registers sit.
    if (!out.chips.empty() && chip.takes_faults()) {
      const std::size_t first = c * iblock.size();
      chip.fault_->apply_pass_faults(t, chip.fault_chip_id_,
                                     out.chips.subspan(first, iblock.size()));
    }
    const std::uint64_t cycles =
        static_cast<std::uint64_t>(chip.mc_.vmp_ways) * chip.memory_.size() +
        chip.mc_.pipeline_latency_cycles;
    chip.total_cycles_.add(cycles);
    chip.total_interactions_.add(static_cast<std::uint64_t>(chip.memory_.size()) *
                                 iblock.size());
    max_cycles = std::max(max_cycles, cycles);
  }
  return max_cycles;
}

}  // namespace g6
