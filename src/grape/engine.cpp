#include "grape/engine.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "exec/thread_pool.hpp"
#include "fault/checksum.hpp"
#include "util/errors.hpp"
#include "fault/injector.hpp"
#include "grape/selftest.hpp"
#include "obs/context.hpp"
#include "obs/flight.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "util/check.hpp"

namespace g6 {

namespace {
/// How many exponent bits to add on an overflow retry.
constexpr int kRetryBump = 8;
constexpr int kMaxRetries = 16;

/// The serve job this thread is working for (0 outside a scope): flight
/// events from detection/recovery paths carry the owning job.
std::uint64_t flight_job() {
  const obs::MetricScope* scope = obs::ScopedMetricScope::current();
  return scope != nullptr ? scope->job() : 0;
}

double max_abs(const Vec3& v) {
  return std::max({std::fabs(v.x), std::fabs(v.y), std::fabs(v.z)});
}

/// Bitwise comparison of two duplicate-pass result banks. Mantissas and
/// overflow flags must agree exactly: the BFP dataflow is deterministic,
/// so any difference is a transient fault in one of the passes.
bool accumulators_match(const std::vector<HwAccumulators>& a,
                        const std::vector<HwAccumulators>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    for (int c = 0; c < 3; ++c) {
      if (a[k].acc[c].mantissa() != b[k].acc[c].mantissa()) return false;
      if (a[k].jerk[c].mantissa() != b[k].jerk[c].mantissa()) return false;
    }
    if (a[k].pot.mantissa() != b[k].pot.mantissa()) return false;
    if (a[k].overflow() != b[k].overflow()) return false;
  }
  return true;
}
}  // namespace

GrapeForceEngine::GrapeForceEngine(const MachineConfig& mc, const NumberFormats& fmt,
                                   double eps, DmaModel dma, PacketSizes packets)
    : mc_(mc), fmt_(fmt), eps_(eps), dma_(dma), packets_(packets) {
  G6_REQUIRE(eps >= 0.0);
  G6_REQUIRE(mc.boards_per_host >= 1);
  boards_.reserve(mc.boards_per_host);
  for (std::size_t b = 0; b < mc.boards_per_host; ++b) boards_.emplace_back(mc, fmt);
}

void GrapeForceEngine::presize_j_memory(std::size_t n) {
  // Analytic pre-sizing of every chip's j-memory before a full upload.
  // Placement is round-robin over a ring of `h` (board, chip) positions,
  // so the chip at ring position r receives ceil((n - r) / h) slots; one
  // reserve_slots() call per chip replaces n incremental one-slot grows
  // through write().
  const std::size_t h = injector_ ? healthy_slots_.size()
                                  : boards_.size() * mc_.chips_per_board();
  for (std::size_t r = 0; r < h && r < n; ++r) {
    const Slot s = place(r);
    boards_[s.board].chip(s.chip).reserve_slots((n - r + h - 1) / h);
  }
}

GrapeForceEngine::Slot GrapeForceEngine::place(std::size_t index) const {
  // With fault tolerance active, round-robin over the *healthy* chip ring:
  // when every chip is healthy the ring enumerates (board = k % nb,
  // chip = k / nb), which reproduces the formula below bit for bit, so
  // enabling fault tolerance does not move a single particle until a chip
  // actually dies.
  if (injector_) {
    const std::size_t h = healthy_slots_.size();
    Slot s = healthy_slots_[index % h];
    s.slot = static_cast<std::uint32_t>(index / h);
    return s;
  }
  // Round-robin over boards, then chips within a board: balanced j-memory
  // population, so pass time = vmp * ceil(N / total_chips) + latency.
  const std::size_t nb = boards_.size();
  const std::size_t nc = mc_.chips_per_board();
  Slot s;
  s.board = static_cast<std::uint32_t>(index % nb);
  s.chip = static_cast<std::uint32_t>((index / nb) % nc);
  s.slot = static_cast<std::uint32_t>(index / (nb * nc));
  return s;
}

void GrapeForceEngine::load_particles(std::span<const JParticle> particles) {
  n_particles_ = particles.size();
  for (auto& b : boards_) {
    for (std::size_t c = 0; c < b.chip_count(); ++c) b.chip(c).clear_memory();
  }
  G6_REQUIRE(global_ids_.empty() || global_ids_.size() == particles.size());
  if (injector_) {
    host_j_.resize(particles.size());
    jmem_sums_.resize(particles.size());
  }
  presize_j_memory(particles.size());
  for (std::size_t i = 0; i < particles.size(); ++i) {
    const Slot s = place(i);
    const StoredJParticle sp =
        quantize_j_particle(particles[i], hardware_id(i), fmt_);
    boards_[s.board].chip(s.chip).write(s.slot, sp);
    if (injector_) {
      host_j_[i] = sp;
      jmem_sums_[i] = fault::checksum(sp);
    }
  }
  // Fresh exponent guesses; the first force call refines them (and may
  // retry — the "initial calculation" behaviour described in Sec 3.4).
  exps_.assign(particles.size(), BlockExponents{});
  pending_j_writes_ = 0;
  // Initial memory upload.
  stats_.dma_seconds +=
      dma_.transfer_time(particles.size() * packets_.j_particle_bytes);
}

void GrapeForceEngine::update_particle(std::size_t index, const JParticle& p) {
  G6_REQUIRE(index < n_particles_);
  const Slot s = place(index);
  const StoredJParticle sp = quantize_j_particle(p, hardware_id(index), fmt_);
  boards_[s.board].chip(s.chip).write(s.slot, sp);
  if (injector_) {
    host_j_[index] = sp;
    jmem_sums_[index] = fault::checksum(sp);
  }
  ++pending_j_writes_;
}

std::size_t GrapeForceEngine::chip_count() const {
  return boards_.size() * mc_.chips_per_board();
}

Chip& GrapeForceEngine::chip_flat(std::size_t id) {
  const std::size_t nc = mc_.chips_per_board();
  G6_REQUIRE(id < chip_count());
  return boards_[id / nc].chip(id % nc);
}

bool GrapeForceEngine::chip_dead(std::size_t id) const {
  return id < chip_dead_.size() && chip_dead_[id] != 0;
}

std::size_t GrapeForceEngine::dead_chip_count() const {
  return static_cast<std::size_t>(
      std::count(chip_dead_.begin(), chip_dead_.end(), std::uint8_t{1}));
}

std::vector<int> GrapeForceEngine::healthy_chip_ids() const {
  std::vector<int> ids;
  ids.reserve(chip_count());
  for (std::size_t id = 0; id < chip_count(); ++id) {
    if (!chip_dead(id)) ids.push_back(static_cast<int>(id));
  }
  return ids;
}

void GrapeForceEngine::rebuild_healthy_slots() {
  // Enumerate boards-fastest (k -> board = k % nb, chip = k / nb) so the
  // all-healthy ring matches the fault-free placement formula exactly.
  const std::size_t nb = boards_.size();
  const std::size_t nc = mc_.chips_per_board();
  healthy_slots_.clear();
  healthy_slots_.reserve(nb * nc);
  for (std::size_t k = 0; k < nb * nc; ++k) {
    const std::size_t board = k % nb;
    const std::size_t chip = k / nb;
    if (chip_dead(board * nc + chip)) continue;
    healthy_slots_.push_back(Slot{static_cast<std::uint32_t>(board),
                                  static_cast<std::uint32_t>(chip), 0});
  }
}

double GrapeForceEngine::backoff_delay(int attempt) const {
  return det_.backoff_base_s * static_cast<double>(std::uint64_t{1} << attempt);
}

void GrapeForceEngine::enable_fault_tolerance(
    std::shared_ptr<fault::FaultInjector> injector,
    fault::DetectionConfig detection) {
  G6_REQUIRE(injector != nullptr);
  G6_REQUIRE_MSG(n_particles_ == 0,
                 "enable_fault_tolerance must precede load_particles");
  G6_REQUIRE(detection.dead_threshold >= 1);
  G6_REQUIRE(detection.max_retries >= 1);
  G6_REQUIRE(detection.vote_passes >= 1);
  G6_REQUIRE(detection.backoff_base_s >= 0.0);
  injector_ = std::move(injector);
  det_ = detection;
  chip_dead_.assign(chip_count(), 0);
  const std::size_t nc = mc_.chips_per_board();
  for (std::size_t b = 0; b < boards_.size(); ++b) {
    for (std::size_t c = 0; c < nc; ++c) {
      boards_[b].chip(c).attach_fault(injector_.get(),
                                      static_cast<int>(b * nc + c));
    }
  }
  rebuild_healthy_slots();
  // Startup self-test (the paper's operating practice): catch chips that
  // are bad from power-on — configured-stuck or scheduled dead at t <= 0 —
  // before any science touches them.
  FaultCharges charges;
  const auto newly = injector_->activate_hard_failures(
      0.0, mc_.chips_per_module, mc_.chips_per_board());
  (void)newly;  // health check below decides, not the activation oracle
  run_health_check(0.0, charges);
  stats_.grape_seconds += static_cast<double>(charges.cycles) / mc_.clock_hz;
  stats_.dma_seconds += charges.dma_s;
  blocks_since_selftest_ = 0;
  stats_.dead_chips = dead_chip_count();
  obs::MetricsRegistry::global()
      .gauge("fault.dead_chips")
      .set(static_cast<double>(stats_.dead_chips));
  obs::MetricsRegistry::global()
      .gauge("fault.healthy_chips")
      .set(static_cast<double>(healthy_slots_.size()));
}

void GrapeForceEngine::run_health_check(double t, FaultCharges& charges) {
  G6_PHASE("fault.selftest");
  static obs::Counter& c_selftest =
      obs::MetricsRegistry::global().counter("fault.detected.selftest");
  SelfTestOptions opt;
  opt.n_j = det_.selftest_j;
  opt.n_i = det_.selftest_i;
  opt.rel_tol = det_.selftest_rel_tol;

  injector_->set_compute_glitches(false);
  const std::vector<int> healthy = healthy_chip_ids();
  // A chip is declared dead only after failing `dead_threshold` consecutive
  // sweeps; the first sweep covers every healthy chip, re-tests only the
  // suspects.
  std::vector<int> suspects;
  for (int round = 0; round < det_.dead_threshold; ++round) {
    const std::span<const int> targets =
        round == 0 ? std::span<const int>(healthy)
                   : std::span<const int>(suspects);
    const SelfTestReport rep = run_chip_self_test(*this, targets, opt);
    ++stats_.selftests;
    charges.cycles += rep.cycles;
    if (round == 0) {
      suspects = rep.failed;
    } else {
      std::vector<int> confirmed;
      for (int id : suspects) {
        if (std::find(rep.failed.begin(), rep.failed.end(), id) !=
            rep.failed.end()) {
          confirmed.push_back(id);
        }
      }
      suspects = std::move(confirmed);
    }
    if (suspects.empty()) break;
  }
  injector_->set_compute_glitches(true);

  if (suspects.empty()) return;
  c_selftest.add(suspects.size());
  obs::FlightRecorder::global().record(
      obs::FlightEventType::kFaultDetected, flight_job(),
      static_cast<std::int64_t>(suspects.size()), 0, "selftest");
  stats_.selftest_failures += suspects.size();
  for (int id : suspects) {
    obs::log_warn("fault: self-test failed, disabling chip %d", id);
    chip_dead_[static_cast<std::size_t>(id)] = 1;
    // Record engine-detected deaths in the injector too, so its health view
    // and the engine's agree (idempotent for scheduled failures).
    injector_->mark_hard_failed(t, id);
  }
  remap_particles(charges);
}

void GrapeForceEngine::remap_particles(FaultCharges& charges) {
  G6_PHASE("fault.remap");
  static obs::Counter& c_remaps =
      obs::MetricsRegistry::global().counter("fault.recovered.remaps");
  static obs::Gauge& g_dead =
      obs::MetricsRegistry::global().gauge("fault.dead_chips");
  static obs::Gauge& g_healthy =
      obs::MetricsRegistry::global().gauge("fault.healthy_chips");
  rebuild_healthy_slots();
  if (healthy_slots_.empty()) {
    throw fault::HardFault("all chips failed; no healthy pipelines remain");
  }
  for (auto& b : boards_) {
    for (std::size_t c = 0; c < b.chip_count(); ++c) b.chip(c).clear_memory();
  }
  presize_j_memory(n_particles_);
  for (std::size_t i = 0; i < n_particles_; ++i) {
    const Slot s = place(i);
    boards_[s.board].chip(s.chip).write(s.slot, host_j_[i]);
  }
  pending_j_writes_ = 0;
  if (n_particles_ > 0) {
    // Full j-memory reload over the DMA link.
    charges.dma_s += dma_.transfer_time(n_particles_ * packets_.j_particle_bytes);
  }
  ++stats_.remaps;
  c_remaps.add(1);
  stats_.dead_chips = dead_chip_count();
  g_dead.set(static_cast<double>(stats_.dead_chips));
  g_healthy.set(static_cast<double>(healthy_slots_.size()));
}

void GrapeForceEngine::inject_and_scrub_j_memory(double t, FaultCharges& charges) {
  if (injector_->plan().jmem_flip_rate <= 0.0) return;
  static obs::Counter& c_scrub =
      obs::MetricsRegistry::global().counter("fault.detected.scrub");
  static obs::Counter& c_rewrites =
      obs::MetricsRegistry::global().counter("fault.recovered.jmem_rewrites");
  std::uint64_t injected = 0;
  for (std::size_t id = 0; id < chip_count(); ++id) {
    if (chip_dead(id)) continue;
    injected += injector_->corrupt_j_memory(t, static_cast<int>(id),
                                            chip_flat(id).memory());
  }
  if (!det_.scrub_j_memory) return;
  // Scrub: every word is checked against the host-side master digest, so
  // the memory is provably clean after this loop — each injected flip is
  // detected (FNV-1a catches any single-bit change) and rewritten.
  std::uint64_t rewrites = 0;
  for (std::size_t i = 0; i < n_particles_; ++i) {
    const Slot s = place(i);
    JStore& mem = boards_[s.board].chip(s.chip).memory();
    if (fault::checksum(mem.get(s.slot)) != jmem_sums_[i]) {
      mem.set(s.slot, host_j_[i]);
      ++rewrites;
    }
  }
  G6_ASSERT(rewrites == injected);
  if (rewrites > 0) {
    c_scrub.add(rewrites);
    c_rewrites.add(rewrites);
    obs::FlightRecorder::global().record(
        obs::FlightEventType::kFaultDetected, flight_job(),
        static_cast<std::int64_t>(rewrites), 0, "scrub");
    stats_.jmem_rewrites += rewrites;
    charges.dma_s += dma_.transfer_time(rewrites * packets_.j_particle_bytes);
  }
}

GrapeForceEngine::FaultCharges GrapeForceEngine::fault_prologue(double t) {
  FaultCharges charges;
  // Scheduled hard failures whose time has come turn chips bad *now*; the
  // anomaly triggers an immediate self-test sweep (detection still goes
  // through the test, not through the injection oracle).
  const std::vector<int> newly = injector_->activate_hard_failures(
      t, mc_.chips_per_module, mc_.chips_per_board());
  bool need_check = false;
  for (int id : newly) {
    if (static_cast<std::size_t>(id) < chip_count()) {
      need_check = true;
    } else {
      obs::log_warn("fault: scheduled failure for chip %d outside this host; ignored",
                    id);
    }
  }
  if (det_.selftest_interval > 0) {
    ++blocks_since_selftest_;
    if (blocks_since_selftest_ >=
        static_cast<std::uint64_t>(det_.selftest_interval)) {
      need_check = true;
    }
  }
  if (need_check) {
    run_health_check(t, charges);
    blocks_since_selftest_ = 0;
  }
  inject_and_scrub_j_memory(t, charges);
  return charges;
}

GrapeForceEngine::PassResult GrapeForceEngine::run_boards(
    double t, std::span<const IParticlePacket> pass,
    std::span<const BlockExponents> exps, std::vector<HwAccumulators>& out,
    std::span<HwNeighborRecorder> neighbors, PassBanks& banks, bool parallel) {
  G6_REQUIRE(pass.size() <= mc_.i_parallelism());
  G6_REQUIRE(exps.size() == pass.size());
  G6_REQUIRE(neighbors.empty() || neighbors.size() == pass.size());
  const double eps2 = eps_ * eps_;
  const bool want_nb = !neighbors.empty();
  const std::size_t n = pass.size();
  const std::size_t per_board = mc_.modules_per_board;
  const std::size_t items = boards_.size() * per_board;

  banks.module_words.resize(items * n);
  banks.module_cycles.resize(items);
  banks.board_sums.resize(boards_.size() * n);
  if (want_nb) {
    banks.module_nb.resize(items * n);
    banks.board_nb.resize(boards_.size() * n);
  }
  const auto nb_slice = [&](std::vector<HwNeighborRecorder>& bank,
                            std::size_t i) {
    if (!want_nb) return std::span<HwNeighborRecorder>{};
    const std::span<HwNeighborRecorder> nb{bank.data() + i * n, n};
    for (std::size_t k = 0; k < n; ++k) nb[k].reset(neighbors[k].capacity);
    return nb;
  };

  // One item per (board, module); each writes only its own slice of the
  // banks, so the items can run as concurrent tasks.
  const auto run_module = [&](std::size_t i) {
    banks.module_cycles[i] =
        boards_[i / per_board].module(i % per_board).run_pass(
            t, pass, exps, eps2, {banks.module_words.data() + i * n, n},
            nb_slice(banks.module_nb, i));
  };
  if (parallel && items > 1) {
    exec::TaskGroup group;
    for (std::size_t i = 0; i < items; ++i) {
      group.run([&run_module, i] { run_module(i); });
    }
    group.wait();
  } else {
    for (std::size_t i = 0; i < items; ++i) run_module(i);
  }

  // The summation tree in its fixed order — modules into their board,
  // then boards into `out` — whatever order the items ran in.
  PassResult r;
  std::uint64_t max_board_cycles = 0;
  for (std::size_t b = 0; b < boards_.size(); ++b) {
    const std::span<const HwNeighborRecorder> module_nb =
        want_nb ? std::span<const HwNeighborRecorder>(
                      banks.module_nb.data() + b * per_board * n, per_board * n)
                : std::span<const HwNeighborRecorder>{};
    const std::span<HwNeighborRecorder> board_nb = nb_slice(banks.board_nb, b);
    max_board_cycles = std::max(
        max_board_cycles,
        ProcessorBoard::sum_modules(
            {banks.module_cycles.data() + b * per_board, per_board},
            {banks.module_words.data() + b * per_board * n, per_board * n},
            module_nb, {banks.board_sums.data() + b * n, n}, board_nb));
    for (std::size_t k = 0; k < board_nb.size(); ++k) {
      neighbors[k].merge(board_nb[k]);
    }
    r.interactions += static_cast<std::uint64_t>(boards_[b].total_j()) * n;
  }
  out.resize(n);
  for (std::size_t k = 0; k < n; ++k) out[k].reset(exps[k]);
  NetworkBoard::reduce(banks.board_sums, out);
  r.cycles = max_board_cycles + NetworkBoard::kLatencyCycles;
  return r;
}

std::uint64_t GrapeForceEngine::compute_partials(
    double t, std::span<const IParticlePacket> pass,
    std::span<const BlockExponents> exps, std::vector<HwAccumulators>& out,
    std::span<HwNeighborRecorder> neighbors) {
  const bool parallel =
      exec::ThreadPool::global().worker_count() > 0 && injector_ == nullptr;
  const PassResult r =
      run_boards(t, pass, exps, out, neighbors, partial_banks_, parallel);
  ++stats_.passes;
  stats_.interactions += r.interactions;
  return r.cycles;
}

void GrapeForceEngine::compute_forces(double t, std::span<const PredictedState> block,
                                      std::span<Force> out) {
  G6_PHASE("grape.run_block");
  submit_block(t, block, {}, out, {}).wait();
}

void GrapeForceEngine::compute_forces_neighbors(
    double t, std::span<const PredictedState> block, std::span<const double> radii2,
    std::span<Force> out, std::span<NeighborResult> neighbors) {
  G6_REQUIRE(radii2.size() == block.size());
  G6_REQUIRE(neighbors.size() == block.size());
  G6_PHASE("grape.run_block");
  submit_block(t, block, radii2, out, neighbors).wait();
}

ForceTicket GrapeForceEngine::submit_forces(double t,
                                            std::span<const PredictedState> block,
                                            std::span<Force> out) {
  return submit_block(t, block, {}, out, {});
}

ForceTicket GrapeForceEngine::submit_block(double t,
                                           std::span<const PredictedState> block,
                                           std::span<const double> radii2,
                                           std::span<Force> out,
                                           std::span<NeighborResult> neighbors) {
  G6_REQUIRE(block.size() == out.size());
  G6_REQUIRE(radii2.empty() || radii2.size() == block.size());
  G6_REQUIRE(radii2.size() == neighbors.size());
  G6_REQUIRE_MSG(!inflight_,
                 "GrapeForceEngine: a force submission is already in flight");
  G6_PHASE("grape.submit");
  const bool want_nb = !neighbors.empty();

  auto cs = std::make_shared<CallState>();
  cs->block_size = block.size();
  cs->want_nb = want_nb;

  // Fault housekeeping first (hard-failure activation, health checks,
  // j-memory inject + scrub) so every pass below runs on clean, healthy
  // hardware. A remap inside the prologue rewrites all memories, making
  // any pending incremental writes moot. Throws propagate from here, with
  // no ticket issued and no state in flight.
  if (injector_) {
    const FaultCharges fc = fault_prologue(t);
    cs->prologue_cycles += fc.cycles;
    cs->prologue_seconds += fc.dma_s;
  }

  // Write back the particles corrected since the previous call (one DMA).
  if (pending_j_writes_ > 0) {
    G6_PHASE("grape.j-send");
    cs->prologue_dma_bytes += pending_j_writes_ * packets_.j_particle_bytes;
    cs->prologue_seconds +=
        dma_.transfer_time(pending_j_writes_ * packets_.j_particle_bytes);
    pending_j_writes_ = 0;
  }

  // Send the i-block (one DMA).
  cs->prologue_dma_bytes += block.size() * packets_.i_particle_bytes;
  cs->prologue_seconds +=
      dma_.transfer_time(block.size() * packets_.i_particle_bytes);

  packets_buf_.resize(block.size());
  for (std::size_t k = 0; k < block.size(); ++k) {
    packets_buf_[k] = quantize_i_particle(block[k], fmt_);
    if (want_nb) packets_buf_[k].h2 = radii2[k];
  }

  // Pre-grow the exponent cache to cover every global id in this block, so
  // the chunk tasks never reallocate it concurrently; their refinement
  // writes are then disjoint per particle.
  std::size_t need = exps_.size();
  for (const auto& p : block) {
    need = std::max(need, static_cast<std::size_t>(p.index) + 1);
  }
  if (need > exps_.size()) exps_.resize(need);

  // One chunk per hardware pass. An empty block still gets one (empty)
  // chunk so the ticket has something to join.
  const std::size_t chunk = mc_.i_parallelism();
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  for (std::size_t begin = 0; begin < block.size(); begin += chunk) {
    ranges.emplace_back(begin, std::min(block.size(), begin + chunk));
  }
  if (ranges.empty()) ranges.emplace_back(0, 0);
  cs->accts.resize(ranges.size());
  if (chunk_scratch_.size() < ranges.size()) chunk_scratch_.resize(ranges.size());

  // The injector's RNG stream (and the vote/retransmit scratch) requires
  // the serial inline path; it also makes TransientFaults surface from
  // this very call, before the caller overlaps anything.
  auto& pool = exec::ThreadPool::global();
  const bool parallel = pool.worker_count() > 0 && injector_ == nullptr;

  inflight_ = true;
  ForceTicket tk = ForceTicket::make(
      ranges,
      [this, cs](bool ok) {
        if (ok) fold_call(*cs);
        inflight_ = false;
      },
      pool);
  for (std::size_t c = 0; c < ranges.size(); ++c) {
    const std::size_t b = ranges[c].first;
    const std::size_t e = ranges[c].second;
    tk.dispatch(
        c,
        [this, cs, t, block, out, neighbors, b, e, c, parallel] {
          if (b == e) return;
          run_chunk(t, block, out, neighbors, b, e, parallel, chunk_scratch_[c],
                    cs->accts[c]);
        },
        parallel);
  }
  return tk;
}

void GrapeForceEngine::run_chunk(double t, std::span<const PredictedState> block,
                                 std::span<Force> out,
                                 std::span<NeighborResult> neighbors,
                                 std::size_t begin, std::size_t end,
                                 bool parallel, ChunkScratch& scratch,
                                 ChunkAcct& acct) {
  const bool want_nb = !neighbors.empty();
  const std::span<const IParticlePacket> pass{packets_buf_.data() + begin,
                                              end - begin};
  if (injector_ && injector_->plan().ipacket_rate > 0.0) {
    const std::span<IParticlePacket> pass_mut{packets_buf_.data() + begin,
                                              end - begin};
    verify_i_packets(t, pass_mut, acct.extra_seconds, acct.extra_dma_bytes);
  }
  std::vector<BlockExponents>& pass_exps = scratch.exps;
  pass_exps.resize(pass.size());
  for (std::size_t k = 0; k < pass.size(); ++k) {
    // i-particles are keyed by *global* id, which is not necessarily a
    // locally stored j-particle (probe points, foreign i-particles in
    // multi-host runs): fall back to the fresh-guess exponents.
    const std::uint32_t gid = block[begin + k].index;
    pass_exps[k] = gid < exps_.size() ? exps_[gid] : BlockExponents{};
  }

  // Result banks: concurrent chunks share nothing but the (read-only)
  // packets and the boards, whose passes are reentrant.
  std::vector<HwAccumulators>& merged = scratch.merged;
  std::vector<HwAccumulators>& vote_bank = scratch.vote_bank;
  std::vector<HwNeighborRecorder>& pass_nb = scratch.nb;
  PassBanks& banks = scratch.banks;
  // Total neighbor capacity visible to the host: one FIFO per chip.
  const std::size_t host_nb_capacity =
      mc_.neighbor_buffer_per_chip * mc_.chips_per_host();
  const bool vote = injector_ && det_.vote_passes > 1;

  for (int attempt = 0;; ++attempt) {
    // One span per hardware pass; overflow retries show up as repeats.
    G6_PHASE("grape.pipeline");
    for (int vote_try = 0;; ++vote_try) {
      if (want_nb) {
        pass_nb.resize(pass.size());
        for (auto& nb : pass_nb) nb.reset(host_nb_capacity);
      }
      const std::uint64_t glitches0 =
          injector_ ? injector_->counts().compute_glitches : 0;
      PassResult r = run_boards(t, pass, pass_exps, merged,
                                want_nb ? std::span<HwNeighborRecorder>(pass_nb)
                                        : std::span<HwNeighborRecorder>{},
                                banks, parallel);
      acct.cycles += r.cycles;
      ++acct.passes;
      acct.interactions += r.interactions;
      if (!vote) break;
      // Duplicate-pass voting: run the pass a second time (no neighbor
      // collection — lists come from the first pass) and require the
      // two BFP result banks to agree bit for bit. Vote mode implies an
      // injector, so this path is always on the caller thread.
      r = run_boards(t, pass, pass_exps, vote_bank, {}, banks, parallel);
      acct.cycles += r.cycles;
      ++acct.passes;
      acct.interactions += r.interactions;
      if (accumulators_match(merged, vote_bank)) break;
      static obs::Counter& c_vote =
          obs::MetricsRegistry::global().counter("fault.detected.vote");
      static obs::Counter& c_vote_retries = obs::MetricsRegistry::global()
                                                .counter("fault.recovered.vote_retries");
      const std::uint64_t glitched =
          injector_->counts().compute_glitches - glitches0;
      c_vote.add(glitched > 0 ? glitched : 1);
      c_vote_retries.add(1);
      obs::FlightRecorder::global().record(
          obs::FlightEventType::kFaultDetected, flight_job(),
          static_cast<std::int64_t>(glitched), vote_try, "vote");
      obs::FlightRecorder::global().record(obs::FlightEventType::kRetry,
                                           flight_job(), vote_try, 0, "vote");
      ++stats_.vote_retries;
      const double delay = backoff_delay(vote_try);
      acct.extra_seconds += delay;
      stats_.backoff_seconds += delay;
      if (vote_try >= det_.max_retries) {
        throw fault::RetryExhausted(
            "duplicate-pass vote never agreed; persistent compute fault");
      }
    }
    bool overflow = false;
    for (std::size_t k = 0; k < pass.size(); ++k) {
      if (merged[k].overflow()) {
        overflow = true;
        pass_exps[k].acc += kRetryBump;
        pass_exps[k].jerk += kRetryBump;
        pass_exps[k].pot += kRetryBump;
      }
    }
    if (!overflow) break;
    ++acct.retries;
    if (attempt >= kMaxRetries) {
      throw fault::RetryExhausted("block exponent retry did not converge");
    }
  }

  G6_PHASE("grape.reduce");
  for (std::size_t k = 0; k < pass.size(); ++k) {
    const Force f = merged[k].decode();
    out[begin + k] = f;
    // Remember refined exponents for the next step (margin 2 bits). The
    // prologue pre-grew the cache past every id in this block, so this
    // write never reallocates under a concurrent chunk.
    const std::uint32_t gid = block[begin + k].index;
    G6_ASSERT(gid < exps_.size());
    exps_[gid].acc = choose_block_exponent(max_abs(f.acc));
    exps_[gid].jerk = choose_block_exponent(max_abs(f.jerk));
    exps_[gid].pot = choose_block_exponent(std::fabs(f.pot));
    if (want_nb) {
      NeighborResult& nb = neighbors[begin + k];
      nb.indices = std::move(pass_nb[k].indices);
      nb.overflow = pass_nb[k].overflow;
      nb.nearest = pass_nb[k].has_nearest ? pass_nb[k].nearest : gid;
      nb.nearest_r2 = pass_nb[k].nearest_r2;
      acct.neighbor_words += nb.indices.size();
    }
  }
}

void GrapeForceEngine::fold_call(const CallState& cs) {
  // Instrument references resolve once; the registry keeps them alive and
  // reset() zeroes in place, so caching across calls is safe.
  static obs::Counter& c_cycles =
      obs::MetricsRegistry::global().counter("grape.pipeline.cycles");
  static obs::Counter& c_dma_bytes =
      obs::MetricsRegistry::global().counter("grape.dma.bytes");
  static obs::Counter& c_passes =
      obs::MetricsRegistry::global().counter("grape.passes");
  static obs::Counter& c_retries =
      obs::MetricsRegistry::global().counter("grape.retries");
  static obs::Counter& c_interactions =
      obs::MetricsRegistry::global().counter("grape.interactions");

  std::uint64_t cycles = cs.prologue_cycles;
  std::uint64_t passes = 0;
  std::uint64_t retries = 0;
  std::uint64_t interactions = 0;
  std::uint64_t dma_bytes = cs.prologue_dma_bytes;
  std::size_t neighbor_words = 0;
  double call_seconds = cs.prologue_seconds;
  for (const ChunkAcct& a : cs.accts) {
    cycles += a.cycles;
    passes += a.passes;
    retries += a.retries;
    interactions += a.interactions;
    dma_bytes += a.extra_dma_bytes;
    call_seconds += a.extra_seconds;
    neighbor_words += a.neighbor_words;
  }

  // Read back the results (one DMA), plus the neighbor lists (one more
  // transaction of 4-byte index words) when requested.
  dma_bytes += cs.block_size * packets_.result_bytes;
  call_seconds += dma_.transfer_time(cs.block_size * packets_.result_bytes);
  if (cs.want_nb) {
    dma_bytes += neighbor_words * 4;
    call_seconds += dma_.transfer_time(neighbor_words * 4);
  }
  call_seconds += static_cast<double>(cycles) / mc_.clock_hz;

  c_cycles.add(cycles);
  c_dma_bytes.add(dma_bytes);
  c_passes.add(passes);
  c_retries.add(retries);
  c_interactions.add(interactions);

  const double grape_seconds = static_cast<double>(cycles) / mc_.clock_hz;
  stats_.passes += passes;
  stats_.retries += retries;
  stats_.interactions += interactions;
  stats_.grape_seconds += grape_seconds;
  stats_.dma_seconds += call_seconds - grape_seconds;
  ++stats_.force_calls;
  last_call_seconds_ = call_seconds;
  last_call_grape_seconds_ = grape_seconds;
}

void GrapeForceEngine::verify_i_packets(double t, std::span<IParticlePacket> pass,
                                        double& call_seconds,
                                        std::uint64_t& dma_bytes) {
  static obs::Counter& c_checksum =
      obs::MetricsRegistry::global().counter("fault.detected.checksum");
  static obs::Counter& c_retransmits = obs::MetricsRegistry::global().counter(
      "fault.recovered.packet_retransmits");
  if (!det_.packet_checksums) {
    // No detection: corruption flows straight into the pipelines.
    injector_->corrupt_i_packets(t, pass);
    return;
  }
  // Send-side copies + digests, taken before the link can corrupt anything.
  clean_pass_.assign(pass.begin(), pass.end());
  packet_sums_.resize(pass.size());
  for (std::size_t k = 0; k < pass.size(); ++k) {
    packet_sums_[k] = fault::checksum(clean_pass_[k]);
  }
  injector_->corrupt_i_packets(t, pass);
  std::vector<std::size_t> bad;
  for (int attempt = 0;; ++attempt) {
    // Receive-side verification: a digest mismatch (FNV-1a catches any
    // single-bit flip) triggers a retransmit of that packet, which may
    // itself be corrupted again — hence the bounded outer loop.
    bad.clear();
    for (std::size_t k = 0; k < pass.size(); ++k) {
      if (fault::checksum(pass[k]) != packet_sums_[k]) {
        pass[k] = clean_pass_[k];
        bad.push_back(k);
      }
    }
    if (bad.empty()) return;
    c_checksum.add(bad.size());
    c_retransmits.add(bad.size());
    obs::FlightRecorder::global().record(
        obs::FlightEventType::kFaultDetected, flight_job(),
        static_cast<std::int64_t>(bad.size()), attempt, "checksum");
    obs::FlightRecorder::global().record(obs::FlightEventType::kRetry,
                                         flight_job(), attempt, 0,
                                         "retransmit");
    stats_.packet_retransmits += bad.size();
    const double backoff = backoff_delay(attempt);
    call_seconds += dma_.transfer_time(bad.size() * packets_.i_particle_bytes) +
                    backoff;
    stats_.backoff_seconds += backoff;
    dma_bytes += bad.size() * packets_.i_particle_bytes;
    if (attempt >= det_.max_retries) {
      throw fault::RetryExhausted(
          "i-packet retransmit retries exhausted; link unusable");
    }
    // Only the retransmitted packets traverse the fault channel again.
    for (std::size_t k : bad) {
      injector_->corrupt_i_packets(t, std::span<IParticlePacket>{&pass[k], 1});
    }
  }
}

}  // namespace g6
