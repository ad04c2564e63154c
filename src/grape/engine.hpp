#pragma once
// GrapeForceEngine: one host's GRAPE-6 subsystem — `boards_per_host`
// processor boards behind a network board and a PCI DMA link.
//
// Implements the ForceEngine interface so the Hermite integrator can run
// on the emulated hardware unchanged, and additionally keeps a *virtual
// clock* of the time the real hardware would have spent (pipeline cycles,
// reduction latencies, DMA transfers). Nothing here sleeps; virtual time
// is pure accounting.
//
// Block floating-point exponents are managed as in the paper (Sec 3.4):
// the engine remembers each particle's exponents from the previous step
// and retries a pass with larger exponents when the hardware raises the
// overflow flag.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fault/plan.hpp"
#include "grape/board.hpp"
#include "grape/config.hpp"
#include "hermite/force_engine.hpp"

namespace g6 {

namespace fault {
class FaultInjector;
}

/// Cumulative virtual-time and event statistics of one engine.
struct GrapeHostStats {
  double grape_seconds = 0.0;  ///< pipeline + reduction time
  double dma_seconds = 0.0;    ///< host<->GRAPE transfers
  std::uint64_t force_calls = 0;
  std::uint64_t passes = 0;
  std::uint64_t retries = 0;   ///< block-exponent overflow retries
  std::uint64_t interactions = 0;

  // Fault detection/recovery (all zero without enable_fault_tolerance).
  std::uint64_t selftests = 0;           ///< self-test sweeps run
  std::uint64_t selftest_failures = 0;   ///< chips confirmed bad by self-test
  std::uint64_t jmem_rewrites = 0;       ///< scrubbed j-memory words rewritten
  std::uint64_t packet_retransmits = 0;  ///< corrupted i-packets resent
  std::uint64_t vote_retries = 0;        ///< duplicate-pass mismatch retries
  std::uint64_t remaps = 0;              ///< j-particle remaps after chip death
  std::uint64_t dead_chips = 0;          ///< chips currently disabled
  double backoff_seconds = 0.0;          ///< virtual retry backoff charged

  double total_seconds() const { return grape_seconds + dma_seconds; }
};

class GrapeForceEngine final : public ForceEngine {
 public:
  /// `mc.boards_per_host` boards are instantiated; the rest of `mc`
  /// supplies the chip microarchitecture.
  GrapeForceEngine(const MachineConfig& mc, const NumberFormats& fmt, double eps,
                   DmaModel dma = {}, PacketSizes packets = {});

  // --- ForceEngine ------------------------------------------------------
  void load_particles(std::span<const JParticle> particles) override;
  void update_particle(std::size_t index, const JParticle& p) override;
  void compute_forces(double t, std::span<const PredictedState> block,
                      std::span<Force> out) override;
  void compute_forces_neighbors(double t, std::span<const PredictedState> block,
                                std::span<const double> radii2,
                                std::span<Force> out,
                                std::span<NeighborResult> neighbors) override;
  bool supports_neighbors() const override { return true; }

  /// Chunked asynchronous submission: the block is split into passes of
  /// i_parallelism() particles, each evaluated as a task on the shared
  /// exec pool that fans its passes out as one task per (board, module)
  /// (all inline with no workers or with a fault injector attached — the
  /// injector's RNG stream must see passes in order). The caller corrects
  /// finished chunks via wait_chunk while later chunks are still "on the
  /// hardware". Module and board partials merge in fixed order and
  /// exponent refinements are per-particle, so results are
  /// bit-identical to the blocking path at any thread count. Virtual-time
  /// and stats accounting folds in the ticket's epilogue, in chunk order.
  ForceTicket submit_forces(double t, std::span<const PredictedState> block,
                            std::span<Force> out) override;

  /// submit_forces plus optional neighbor collection (both spans empty or
  /// both block-sized). One submission may be in flight per engine.
  ForceTicket submit_block(double t, std::span<const PredictedState> block,
                           std::span<const double> radii2, std::span<Force> out,
                           std::span<NeighborResult> neighbors);
  double softening() const override { return eps_; }
  std::size_t size() const override { return n_particles_; }

  // --- lower-level access for the parallel algorithms --------------------
  /// One pass (<= 48 i-particles) over this host's j-memory with caller-
  /// managed exponents; partial results are NOT decoded. `neighbors`
  /// (optional, same length, recorders reset by the caller) collects
  /// merged neighbor lists. Returns cycles.
  std::uint64_t compute_partials(double t, std::span<const IParticlePacket> pass,
                                 std::span<const BlockExponents> exps,
                                 std::vector<HwAccumulators>& out,
                                 std::span<HwNeighborRecorder> neighbors = {});

  /// Quantize a predicted i-particle with this engine's formats.
  IParticlePacket make_packet(const PredictedState& p) const {
    return quantize_i_particle(p, fmt_);
  }

  const GrapeHostStats& stats() const { return stats_; }
  const MachineConfig& machine() const { return mc_; }
  const NumberFormats& formats() const { return fmt_; }
  const DmaModel& dma() const { return dma_; }
  const PacketSizes& packets() const { return packets_; }

  /// Exponent bank (indexed by global particle id); exposed so parallel
  /// drivers can share exponents across hosts.
  std::vector<BlockExponents>& exponents() { return exps_; }

  /// Identity map for engines that hold a SUBSET of a larger system (the
  /// host-grid algorithm): slot k of the next load_particles call gets
  /// hardware id ids[k] instead of k, so the pipeline self-interaction
  /// cut works against global i-particle indices. Call before
  /// load_particles; an empty map restores the identity.
  void set_global_ids(std::vector<std::uint32_t> ids) { global_ids_ = std::move(ids); }

  /// Virtual time charged to the last compute_forces call.
  double last_call_seconds() const { return last_call_seconds_; }
  /// Pipeline-only part of the last call (no DMA) — used by the cluster
  /// simulator, which accounts transfers with its own network topology.
  double last_call_grape_seconds() const { return last_call_grape_seconds_; }

  std::size_t board_count() const { return boards_.size(); }
  ProcessorBoard& board(std::size_t b) { return boards_[b]; }

  // --- fault tolerance ---------------------------------------------------
  /// Attach a fault injector and a detection policy. Must be called BEFORE
  /// load_particles (the engine keeps host-side master copies of every
  /// quantized j-particle from then on). Runs the startup self-test
  /// immediately; chips that fail `detection.dead_threshold` consecutive
  /// sweeps are disabled and their share of j-memory is remapped.
  void enable_fault_tolerance(std::shared_ptr<fault::FaultInjector> injector,
                              fault::DetectionConfig detection = {});

  fault::FaultInjector* injector() { return injector_.get(); }
  const fault::DetectionConfig& detection() const { return det_; }

  /// Chips across all boards, addressed flat as board*chips_per_board+chip.
  std::size_t chip_count() const;
  Chip& chip_flat(std::size_t id);
  bool chip_dead(std::size_t id) const;
  std::size_t dead_chip_count() const;
  std::vector<int> healthy_chip_ids() const;

 private:
  struct Slot {
    std::uint32_t board;
    std::uint32_t chip;
    std::uint32_t slot;
  };
  /// Virtual-time/DMA costs accumulated by the fault helpers, folded into
  /// the calling context's accounting (run_block or stats_ directly).
  struct FaultCharges {
    double dma_s = 0.0;
    std::uint64_t cycles = 0;
  };
  Slot place(std::size_t index) const;

  /// Per-chunk accounting, folded into stats_/metrics in chunk order by
  /// the ticket epilogue (fold_call) so totals never depend on scheduling.
  struct ChunkAcct {
    std::uint64_t cycles = 0;
    std::uint64_t passes = 0;
    std::uint64_t retries = 0;
    std::uint64_t interactions = 0;
    std::uint64_t extra_dma_bytes = 0;  ///< packet retransmits (fault mode)
    double extra_seconds = 0.0;         ///< retransmit DMA + retry backoff
    std::size_t neighbor_words = 0;
  };
  /// Everything one submission accumulates outside the chunk tasks.
  struct CallState {
    double prologue_seconds = 0.0;
    std::uint64_t prologue_dma_bytes = 0;
    std::uint64_t prologue_cycles = 0;
    std::size_t block_size = 0;
    bool want_nb = false;
    std::vector<ChunkAcct> accts;
  };
  struct PassResult {
    std::uint64_t cycles = 0;
    std::uint64_t interactions = 0;
  };
  /// One pass's partials on their way up the summation tree: per (board,
  /// module) item, then per board, i-slots innermost. Caller-owned and
  /// reused across passes so the banks and neighbor-index heaps stop
  /// churning the allocator (the recorders stay empty without neighbor
  /// collection).
  struct PassBanks {
    std::vector<HwPartialWords> module_words;
    std::vector<HwNeighborRecorder> module_nb;
    std::vector<std::uint64_t> module_cycles;
    std::vector<HwPartialWords> board_sums;
    std::vector<HwNeighborRecorder> board_nb;
  };

  /// One hardware pass over all boards into `out`. Each (board, module)
  /// pass is one item, run as a pool task when `parallel` and inline in
  /// item order otherwise; after the join, module partials merge into
  /// their board in module order and boards into `out` in board order,
  /// so `parallel` affects scheduling only. The stats-free core shared by
  /// compute_partials and run_chunk.
  PassResult run_boards(double t, std::span<const IParticlePacket> pass,
                        std::span<const BlockExponents> exps,
                        std::vector<HwAccumulators>& out,
                        std::span<HwNeighborRecorder> neighbors,
                        PassBanks& banks, bool parallel);
  /// One chunk's pass exponents, result banks and summation-tree banks.
  /// Engine-owned, one per chunk index, so a chunk allocates nothing once
  /// its slot has grown to the working size. Not thread_local: a chunk
  /// task waiting in group.wait() can steal another chunk on its thread.
  struct ChunkScratch {
    std::vector<BlockExponents> exps;
    std::vector<HwAccumulators> merged;
    std::vector<HwAccumulators> vote_bank;
    std::vector<HwNeighborRecorder> nb;
    PassBanks banks;
  };
  /// Evaluate block[begin, end) — retry loops, decode, exponent refresh —
  /// in `scratch`, which no other chunk of the call touches; exps_ writes
  /// are disjoint (block members are unique particles).
  void run_chunk(double t, std::span<const PredictedState> block,
                 std::span<Force> out, std::span<NeighborResult> neighbors,
                 std::size_t begin, std::size_t end, bool parallel,
                 ChunkScratch& scratch, ChunkAcct& acct);
  void fold_call(const CallState& cs);

  FaultCharges fault_prologue(double t);
  void run_health_check(double t, FaultCharges& charges);
  void verify_i_packets(double t, std::span<IParticlePacket> pass,
                        double& call_seconds, std::uint64_t& dma_bytes);
  void inject_and_scrub_j_memory(double t, FaultCharges& charges);
  void remap_particles(FaultCharges& charges);
  void rebuild_healthy_slots();
  /// Reserve every chip's j-memory columns for a full `n`-particle upload.
  void presize_j_memory(std::size_t n);
  /// Exponentially-backed-off virtual retry delay for `attempt`.
  double backoff_delay(int attempt) const;

  MachineConfig mc_;
  NumberFormats fmt_;
  double eps_;
  DmaModel dma_;
  PacketSizes packets_;

  std::uint32_t hardware_id(std::size_t index) const {
    return global_ids_.empty() ? static_cast<std::uint32_t>(index)
                               : global_ids_[index];
  }

  std::vector<ProcessorBoard> boards_;
  std::size_t n_particles_ = 0;
  std::vector<BlockExponents> exps_;
  std::vector<std::uint32_t> global_ids_;
  std::size_t pending_j_writes_ = 0;

  GrapeHostStats stats_;
  double last_call_seconds_ = 0.0;
  double last_call_grape_seconds_ = 0.0;

  // Scratch for the caller-thread paths (prologue, compute_partials).
  // Chunk tasks use only chunk-local banks; `inflight_` rejects a second
  // submission while one is outstanding.
  std::vector<IParticlePacket> packets_buf_;
  PassBanks partial_banks_;
  std::vector<ChunkScratch> chunk_scratch_;  ///< sized by submit_block
  bool inflight_ = false;

  // fault tolerance (inactive until enable_fault_tolerance)
  std::shared_ptr<fault::FaultInjector> injector_;
  fault::DetectionConfig det_;
  std::vector<std::uint8_t> chip_dead_;     ///< per flat chip id
  std::vector<Slot> healthy_slots_;         ///< placement ring (slot unused)
  std::vector<StoredJParticle> host_j_;     ///< master copy per particle
  std::vector<std::uint64_t> jmem_sums_;    ///< FNV-1a of each master copy
  std::uint64_t blocks_since_selftest_ = 0;
  std::vector<IParticlePacket> clean_pass_; ///< send-side packet copies
  std::vector<std::uint64_t> packet_sums_;  ///< send-side packet digests
};

}  // namespace g6
