#pragma once
// Processor module (Fig 5) and processor board (Fig 4).
//
// A module is 4 chips plus a summation unit; a board is 8 modules plus a
// broadcast network (same i-particles to every chip) and a reduction
// network (FPGA fixed-point adders — exact merges of the block
// floating-point partials). Chips hold disjoint j-subsets, so a board
// computes the force from its whole j-population on one 48-particle
// i-block per pass.
//
// The module is the unit of the emulator's force kernel: one module pass
// predicts every chip's j-memory in one batch and runs one
// ForcePipeline::interact_module() call, which sets up each i-slot lane
// group once and merges the chips' partials in the lanes, in chip order
// (pipeline.hpp). The board's sum over modules stays outside, in module
// order (sum_modules), after the engine's per-module tasks join.

#include <cstdint>
#include <span>
#include <vector>

#include "grape/chip.hpp"

namespace g6 {

/// Latency of one fixed-point summation stage (module and board levels).
inline constexpr std::uint64_t kSummationLatencyCycles = 8;

class ProcessorModule {
 public:
  ProcessorModule(const MachineConfig& mc, const NumberFormats& fmt);

  std::size_t chip_count() const { return chips_.size(); }
  Chip& chip(std::size_t i) { return chips_[i]; }
  const Chip& chip(std::size_t i) const { return chips_[i]; }

  /// Run one pass on all chips (same i-block, disjoint j; every chip's
  /// partials are taken on `exps`) and merge the partials in the
  /// summation unit, in chip order — one kernel call for the module.
  /// `out` is overwritten; `neighbors` (optional, same length, reset by
  /// the caller) collects the merged neighbor lists, each chip's through
  /// its FIFO. A chip with an injector attached has its output faults
  /// applied to its own words before the merge. Returns cycles = max over
  /// chips + summation latency. Reentrant: concurrent passes with
  /// distinct `out` banks are safe (scratch is per thread; the chips only
  /// read their j-memory).
  std::uint64_t run_pass(double t, std::span<const IParticlePacket> iblock,
                         std::span<const BlockExponents> exps, double eps2,
                         std::span<HwPartialWords> out,
                         std::span<HwNeighborRecorder> neighbors = {});

 private:
  std::vector<Chip> chips_;
};

class ProcessorBoard {
 public:
  ProcessorBoard(const MachineConfig& mc, const NumberFormats& fmt);

  std::size_t module_count() const { return modules_.size(); }
  ProcessorModule& module(std::size_t m) { return modules_[m]; }
  std::size_t chip_count() const;

  /// Flat chip addressing 0 .. chips_per_board-1.
  Chip& chip(std::size_t i);

  std::size_t total_j() const;

  /// The board's summation unit: merge one pass's module partials into
  /// `out` (overwritten) in module order, and their neighbor recorders
  /// into `neighbors` (reset by the caller; both empty without neighbor
  /// collection). The module spans are module-major, out.size() slots per
  /// module. Returns the board's cycles: max over `module_cycles` + the
  /// summation latency.
  static std::uint64_t sum_modules(std::span<const std::uint64_t> module_cycles,
                                   std::span<const HwPartialWords> module_words,
                                   std::span<const HwNeighborRecorder> module_nb,
                                   std::span<HwPartialWords> out,
                                   std::span<HwNeighborRecorder> neighbors);

 private:
  std::vector<ProcessorModule> modules_;
};

/// Network board (Fig 3): broadcasts i-particles to up to four boards and
/// reduces their partial results. The reduction itself is an exact merge;
/// the constant models the serializer/deserializer + adder latency.
class NetworkBoard {
 public:
  static constexpr std::uint64_t kLatencyCycles = 32;

  /// Reduce per-board partial sums (board-major, out.size() slots per
  /// board) into `out`, in board order. `out` must be reset with the
  /// block exponents the partials were taken on.
  static void reduce(std::span<const HwPartialWords> board_sums,
                     std::span<HwAccumulators> out);
};

}  // namespace g6
