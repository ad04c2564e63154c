#pragma once
// The GRAPE-6 processor chip (Sec 2.1): six 8-way-VMP force pipelines fed
// by one predictor pipeline and a chip-local j-particle memory.
//
// Functional model: every stored j-particle is predicted once per pass and
// broadcast to all virtual pipelines, i.e. the chip computes forces from
// its j-memory on up to 48 i-particles in parallel. The emulator runs a
// chip's pass inside its module's (board.hpp): one kernel call for all
// the module's chips, and a lone chip's run_pass is a one-chip module.
//
// Timing model: a physical pipeline retires one interaction per clock and
// serves `vmp_ways` virtual pipelines round-robin, so a pass over n_j
// stored particles takes `vmp_ways * n_j + pipeline_latency` cycles —
// independent of how many of the 48 virtual slots are actually filled
// (unused pipelines idle, which is exactly why small blocks waste the
// hardware; see Fig 14's small-N regime).

#include <cstdint>
#include <span>
#include <vector>

#include "exec/relaxed.hpp"
#include "grape/config.hpp"
#include "grape/pipeline.hpp"

namespace g6 {

namespace fault {
class FaultInjector;
}

class Chip {
 public:
  Chip(const MachineConfig& mc, const NumberFormats& fmt)
      : mc_(mc), predictor_(fmt), pipeline_(fmt) {}

  /// Number of i-particles processed in parallel (48 on GRAPE-6).
  std::size_t i_parallelism() const { return mc_.i_parallelism(); }

  void clear_memory() { memory_.clear(); }

  /// Ensure the memory has at least `n` slots. Uploads that know their
  /// slot count should call this once up front; write() only grows
  /// incrementally as a fallback.
  void reserve_slots(std::size_t n) { memory_.ensure_size(n); }

  /// Write a j-particle into a memory slot.
  void write(std::size_t slot, const StoredJParticle& p) {
    reserve_slots(slot + 1);
    memory_.set(slot, p);
  }

  std::size_t j_count() const { return memory_.size(); }

  /// Gather one stored memory word (the columns are the ground truth).
  StoredJParticle stored(std::size_t slot) const { return memory_.get(slot); }

  /// One force pass: forces from the whole j-memory on `iblock`
  /// (iblock.size() <= i_parallelism()) — a one-chip module on the module
  /// pass's kernel. `out[k]` must be reset with the block exponents by the
  /// caller. When `neighbors` is non-empty (same length as the block) the
  /// neighbor comparators run alongside; each recorder must be reset by
  /// the caller and is clamped to this chip's FIFO depth. Returns the
  /// cycles consumed.
  std::uint64_t run_pass(double t, std::span<const IParticlePacket> iblock,
                         double eps2, std::span<HwAccumulators> out,
                         std::span<HwNeighborRecorder> neighbors = {});

  /// Lifetime totals (performance counters). Relaxed atomics: concurrent
  /// passes race only on these sums, which are order-independent.
  std::uint64_t total_cycles() const { return total_cycles_.value(); }
  std::uint64_t total_interactions() const { return total_interactions_.value(); }

  /// Attach the fault injector (nullptr detaches); `chip_id` is this
  /// chip's flat id within the host. With an injector attached, run_pass
  /// applies end-of-pass output faults (stuck/dead/glitched registers).
  void attach_fault(fault::FaultInjector* injector, int chip_id) {
    fault_ = injector;
    fault_chip_id_ = chip_id;
  }

  /// Direct memory access for the fault subsystem: bit-flip injection,
  /// scrubbing, and self-test vector swap-in/swap-out go through the
  /// JStore word accessors (get/set round-trip bit-exactly).
  JStore& memory() { return memory_; }
  const JStore& memory() const { return memory_; }
  JStore take_memory() {
    JStore m = std::move(memory_);
    memory_.clear();  // moved-from columns are valid; re-establish size()==0
    return m;
  }
  void set_memory(JStore m) { memory_ = std::move(m); }

 private:
  friend class ProcessorModule;

  /// The module pass (board.hpp) over `chips`, which share one machine
  /// config and format set: their j-memories predicted in one batch, then
  /// one interact_module() into `out`. In the per-chip mode each chip with
  /// an injector attached then takes its output faults, in chip order.
  /// Counts each chip's cycles and interactions; returns the largest
  /// chip's cycles.
  static std::uint64_t run_chips(std::span<Chip> chips, double t,
                                 std::span<const IParticlePacket> iblock, double eps2,
                                 const ModuleWords& out,
                                 std::span<HwNeighborRecorder> neighbors);

  /// An injector is attached and the chip holds a j: its pass takes
  /// output faults (an empty chip contributes nothing and stays quiet).
  bool takes_faults() const { return fault_ != nullptr && !memory_.empty(); }

  MachineConfig mc_;
  PredictorUnit predictor_;
  ForcePipeline pipeline_;
  JStore memory_;
  exec::RelaxedCounter total_cycles_;
  exec::RelaxedCounter total_interactions_;
  fault::FaultInjector* fault_ = nullptr;
  int fault_chip_id_ = -1;
};

}  // namespace g6
