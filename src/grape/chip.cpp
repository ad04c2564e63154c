#include "grape/chip.hpp"

#include <algorithm>

#include "fault/injector.hpp"
#include "util/check.hpp"

namespace g6 {

std::uint64_t Chip::run_pass(double t, std::span<const IParticlePacket> iblock,
                             double eps2, std::span<HwAccumulators> out,
                             std::span<HwNeighborRecorder> neighbors) {
  G6_REQUIRE(iblock.size() <= i_parallelism());
  G6_REQUIRE(out.size() == iblock.size());
  G6_REQUIRE(neighbors.empty() || neighbors.size() == iblock.size());
  // The on-chip FIFO depth bounds what one chip can report, regardless of
  // the (larger) host-side buffer the results are merged into.
  for (auto& nb : neighbors) {
    G6_ASSERT(nb.indices.empty());
    nb.capacity = std::min(nb.capacity, mc_.neighbor_buffer_per_chip);
  }

  // Pass-local scratch, reused across passes on the same thread. One
  // predict over the whole j-memory, broadcast to the whole i-block.
  static thread_local PredictorUnit::PredictedBatch batch;
  predictor_.predict_batch(memory_, t, batch);
  pipeline_.interact_block(batch, iblock, eps2, out, neighbors);

  // Output-register faults (stuck pipelines, hard-dead chips, transient
  // glitches) hit after accumulation, exactly where the real chip's
  // result registers sit. Empty chips contribute nothing and stay quiet.
  if (fault_ != nullptr && !memory_.empty()) {
    fault_->apply_pass_faults(t, fault_chip_id_, out);
  }

  const std::uint64_t cycles =
      static_cast<std::uint64_t>(mc_.vmp_ways) * memory_.size() +
      mc_.pipeline_latency_cycles;
  total_cycles_.add(cycles);
  total_interactions_.add(static_cast<std::uint64_t>(memory_.size()) *
                          iblock.size());
  return cycles;
}

}  // namespace g6
