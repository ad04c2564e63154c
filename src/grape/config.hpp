#pragma once
// Machine configuration and timing parameters of the emulated GRAPE-6.
//
// The hierarchy follows Figs 1-7 of the paper:
//   chip   = 6 force pipelines x 8-way VMP (48 i-particles in parallel)
//            + predictor pipeline + local j-memory
//   module = 4 chips + summation unit
//   board  = 8 modules + broadcast/reduction network
//   host   = 1 PC driving `boards_per_host` boards through a PCI DMA link
//   cluster= 4 hosts x 4 boards (16 boards as a logical 2D grid)
//   system = 4 clusters (2048 chips, 63.04 Tflops peak)

#include <cstddef>

#include "util/units.hpp"

namespace g6 {

struct MachineConfig {
  // --- chip microarchitecture (Sec 2.1, 3.4) ---------------------------
  std::size_t pipelines_per_chip = 6;   ///< physical force pipelines
  std::size_t vmp_ways = 8;             ///< virtual pipelines per physical
  double clock_hz = 90.0e6;             ///< 90 MHz
  std::size_t pipeline_latency_cycles = 60;  ///< fill/drain of the deep pipe
  std::size_t neighbor_buffer_per_chip = 256;  ///< on-chip neighbor FIFO depth

  // --- packaging --------------------------------------------------------
  std::size_t chips_per_module = 4;
  std::size_t modules_per_board = 8;
  std::size_t boards_per_host = 4;
  std::size_t hosts_per_cluster = 4;
  std::size_t clusters = 1;

  /// i-particles processed in parallel by one chip (48 on GRAPE-6).
  std::size_t i_parallelism() const { return pipelines_per_chip * vmp_ways; }

  std::size_t chips_per_board() const { return chips_per_module * modules_per_board; }
  std::size_t chips_per_host() const { return chips_per_board() * boards_per_host; }
  std::size_t total_hosts() const { return hosts_per_cluster * clusters; }
  std::size_t total_boards() const { return boards_per_host * total_hosts(); }
  std::size_t total_chips() const { return chips_per_board() * total_boards(); }

  /// Interactions per second per chip: one per pipeline per cycle.
  double chip_interactions_per_second() const {
    return static_cast<double>(pipelines_per_chip) * clock_hz;
  }

  /// Peak speed in flops at 57 flops/interaction (Eq 9 convention).
  double chip_peak_flops() const {
    return chip_interactions_per_second() * units::kFlopsPerInteraction;
  }
  double peak_flops() const {
    return chip_peak_flops() * static_cast<double>(total_chips());
  }

  // --- convenience factory configurations -------------------------------
  /// 1 host, 4 boards (Sec 4.1 single-node benchmark).
  static MachineConfig single_host() { return {}; }
  /// One full cluster: 4 hosts, 16 boards (Sec 4.2).
  static MachineConfig single_cluster() {
    MachineConfig c;
    c.clusters = 1;
    return c;
  }
  /// The full 4-cluster, 2048-chip machine (Sec 4.3).
  static MachineConfig full_system() {
    MachineConfig c;
    c.clusters = 4;
    return c;
  }
};

/// Host <-> GRAPE link (PCI DMA) cost model. The per-transaction setup
/// time is what produces the small-N knee in Fig 14 ("the overhead to
/// invoke DMA operations becomes visible").
struct DmaModel {
  double setup_s = 35.0e-6;      ///< per DMA transaction
  double bandwidth_Bps = 133.0e6;  ///< 32-bit/33 MHz PCI

  double transfer_time(std::size_t bytes) const {
    return setup_s + static_cast<double>(bytes) / bandwidth_Bps;
  }
};

/// On-wire packet sizes for the host<->GRAPE link, from the hardware
/// formats: fixed-point positions are 3x8 bytes, velocities etc. 4 bytes.
struct PacketSizes {
  std::size_t i_particle_bytes = 56;  ///< pos(24) + vel(12) + mass/eps/exponents
  std::size_t result_bytes = 56;      ///< acc(24 BFP) + jerk(12) + pot(8) + flags
  std::size_t j_particle_bytes = 104; ///< full predictor data (Sec 2.1)
};

}  // namespace g6
