#include "fault/injector.hpp"

#include <bit>
#include <sstream>

#include "hw/accumulators.hpp"
#include "hw/jstore.hpp"
#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace g6::fault {

namespace {

std::uint64_t flip_bit_u64(std::uint64_t word, std::uint64_t bit) {
  return word ^ (1ULL << bit);
}

double flip_bit(double v, std::uint64_t bit) {
  return std::bit_cast<double>(flip_bit_u64(std::bit_cast<std::uint64_t>(v), bit));
}

std::int64_t flip_bit(std::int64_t v, std::uint64_t bit) {
  return static_cast<std::int64_t>(
      flip_bit_u64(static_cast<std::uint64_t>(v), bit));
}

/// Constant wrong mantissa for a stuck output register: a function of the
/// register's identity only, so the chip reports the same garbage every
/// pass ("stuck-at" semantics).
std::int64_t stuck_pattern(int chip, std::size_t k, std::uint64_t comp) {
  const std::uint64_t mix =
      0x9e3779b97f4a7c15ULL *
      (static_cast<std::uint64_t>(chip + 1) * 131ULL + k * 7ULL + comp + 1ULL);
  // Keep it inside the accumulator's representable span but far from any
  // physical partial sum.
  return static_cast<std::int64_t>(mix >> 8);
}

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(std::move(plan)),
      rng_(plan_.seed),
      hard_done_(plan_.hard_failures.size(), 0),
      c_jmem_(obs::MetricsRegistry::global().counter("fault.injected.jmem")),
      c_ipacket_(obs::MetricsRegistry::global().counter("fault.injected.ipacket")),
      c_compute_(obs::MetricsRegistry::global().counter("fault.injected.compute")),
      c_stuck_(obs::MetricsRegistry::global().counter("fault.injected.stuck_passes")),
      c_hard_(obs::MetricsRegistry::global().counter("fault.injected.hard")),
      c_link_drop_(obs::MetricsRegistry::global().counter("fault.injected.link_drop")),
      c_link_spike_(
          obs::MetricsRegistry::global().counter("fault.injected.link_spike")) {
  G6_REQUIRE_MSG(plan_.jmem_flip_rate >= 0.0 && plan_.jmem_flip_rate <= 1.0,
                 "jmem_flip_rate outside [0, 1]");
  G6_REQUIRE(plan_.ipacket_rate >= 0.0 && plan_.ipacket_rate <= 1.0);
  G6_REQUIRE(plan_.compute_rate >= 0.0 && plan_.compute_rate <= 1.0);
  G6_REQUIRE(plan_.link_drop_rate >= 0.0 && plan_.link_drop_rate < 1.0);
  G6_REQUIRE(plan_.link_spike_rate >= 0.0 && plan_.link_spike_rate <= 1.0);
  G6_REQUIRE(plan_.link_spike_factor >= 1.0);
  G6_REQUIRE(plan_.retransmit_timeout_s >= 0.0);
}

void FaultInjector::note(double t, std::string what) {
  if (events_.size() < kMaxEvents) {
    events_.push_back({t, std::move(what)});
  } else {
    ++dropped_events_;
  }
}

bool FaultInjector::chip_stuck(int chip) const {
  for (int c : plan_.stuck_chips) {
    if (c == chip) return true;
  }
  return false;
}

bool FaultInjector::chip_hard_failed(int chip) const {
  for (int c : hard_failed_) {
    if (c == chip) return true;
  }
  return false;
}

void FaultInjector::mark_hard_failed(double t, int chip) {
  if (chip_hard_failed(chip)) return;
  hard_failed_.push_back(chip);
  ++counts_.hard_activations;
  c_hard_.add(1);
  std::ostringstream os;
  os << "hard failure: chip " << chip;
  note(t, os.str());
}

std::vector<int> FaultInjector::activate_hard_failures(
    double t, std::size_t chips_per_module, std::size_t chips_per_board) {
  std::vector<int> newly;
  for (std::size_t i = 0; i < plan_.hard_failures.size(); ++i) {
    if (hard_done_[i] != 0) continue;
    const HardFailure& f = plan_.hard_failures[i];
    if (f.time > t) continue;
    hard_done_[i] = 1;

    const int base = f.board * static_cast<int>(chips_per_board);
    int first = base;
    int count = static_cast<int>(chips_per_board);
    if (f.module >= 0) {
      first = base + f.module * static_cast<int>(chips_per_module);
      count = static_cast<int>(chips_per_module);
      if (f.chip >= 0) {
        first += f.chip;
        count = 1;
      }
    }
    for (int c = first; c < first + count; ++c) {
      if (!chip_hard_failed(c)) {
        mark_hard_failed(t, c);
        newly.push_back(c);
      }
    }
  }
  return newly;
}

void FaultInjector::corrupt_word(StoredJParticle& p) {
  // Fields in a fixed order: index, mass, t0, pos xyz, vel/acc/jerk/snap.
  const std::uint64_t field = rng_.uniform_index(18);
  switch (field) {
    case 0:
      p.index = static_cast<std::uint32_t>(
          flip_bit_u64(p.index, rng_.uniform_index(32)));
      break;
    case 1:
      p.mass = flip_bit(p.mass, rng_.uniform_index(64));
      break;
    case 2:
      p.t0 = flip_bit(p.t0, rng_.uniform_index(64));
      break;
    case 3:
    case 4:
    case 5:
      p.pos[field - 3] = flip_bit(p.pos[field - 3], rng_.uniform_index(64));
      break;
    default: {
      Vec3* vecs[4] = {&p.vel, &p.acc, &p.jerk, &p.snap};
      const std::uint64_t v = (field - 6) / 3;
      const int d = static_cast<int>((field - 6) % 3);
      (*vecs[v])[d] = flip_bit((*vecs[v])[d], rng_.uniform_index(64));
      break;
    }
  }
}

std::uint64_t FaultInjector::corrupt_j_memory(double t, int chip,
                                              JStore& memory) {
  if (plan_.jmem_flip_rate <= 0.0) return 0;
  std::uint64_t flips = 0;
  for (std::size_t w = 0; w < memory.size(); ++w) {
    if (rng_.uniform() >= plan_.jmem_flip_rate) continue;
    // Gather the word from the SoA columns, flip one bit, scatter it
    // back — bit-exact round trip, same RNG draws as the AoS layout.
    StoredJParticle word = memory.get(w);
    corrupt_word(word);
    memory.set(w, word);
    ++flips;
    ++counts_.jmem_flips;
    c_jmem_.add(1);
    std::ostringstream os;
    os << "j-memory bit flip: chip " << chip << " slot " << w;
    note(t, os.str());
  }
  return flips;
}

void FaultInjector::corrupt_packet(IParticlePacket& p) {
  // Fields: index, pos xyz, vel xyz, h2.
  const std::uint64_t field = rng_.uniform_index(8);
  switch (field) {
    case 0:
      p.index = static_cast<std::uint32_t>(
          flip_bit_u64(p.index, rng_.uniform_index(32)));
      break;
    case 1:
    case 2:
    case 3:
      p.pos[field - 1] = flip_bit(p.pos[field - 1], rng_.uniform_index(64));
      break;
    case 4:
    case 5:
    case 6:
      p.vel[static_cast<int>(field) - 4] =
          flip_bit(p.vel[static_cast<int>(field) - 4], rng_.uniform_index(64));
      break;
    default:
      p.h2 = flip_bit(p.h2, rng_.uniform_index(64));
      break;
  }
}

std::uint64_t FaultInjector::corrupt_i_packets(double t,
                                               std::span<IParticlePacket> packets) {
  if (plan_.ipacket_rate <= 0.0) return 0;
  std::uint64_t corrupted = 0;
  for (std::size_t k = 0; k < packets.size(); ++k) {
    if (rng_.uniform() >= plan_.ipacket_rate) continue;
    corrupt_packet(packets[k]);
    ++corrupted;
    ++counts_.ipacket_corruptions;
    c_ipacket_.add(1);
    std::ostringstream os;
    os << "i-packet corruption: slot " << k;
    note(t, os.str());
  }
  return corrupted;
}

void FaultInjector::apply_pass_faults(double t, int chip,
                                      std::span<HwAccumulators> out) {
  if (out.empty()) return;
  if (chip_hard_failed(chip) || chip_stuck(chip)) {
    for (std::size_t k = 0; k < out.size(); ++k) {
      for (int c = 0; c < HwPartialWords::kWords; ++c) {
        out[k].word(c).fault_set_mantissa(
            stuck_pattern(chip, k, static_cast<std::uint64_t>(c)));
      }
    }
    ++counts_.stuck_passes;
    c_stuck_.add(1);
    return;
  }
  if (!compute_glitches_on_ || plan_.compute_rate <= 0.0) return;
  if (rng_.uniform() >= plan_.compute_rate) return;
  const std::uint64_t k = rng_.uniform_index(out.size());
  const std::uint64_t c = rng_.uniform_index(7);
  // Non-zero mask confined to the low 48 bits: guaranteed to change the
  // mantissa without turning the decoded value astronomically large.
  const std::int64_t mask =
      static_cast<std::int64_t>((rng_.next_u64() & 0xffffffffffffULL) | 1ULL);
  out[k].word(static_cast<int>(c)).fault_xor_mantissa(mask);
  ++counts_.compute_glitches;
  c_compute_.add(1);
  std::ostringstream os;
  os << "compute glitch: chip " << chip << " lane " << k << " component " << c;
  note(t, os.str());
}

bool FaultInjector::drop_message() {
  if (plan_.link_drop_rate <= 0.0) return false;
  if (rng_.uniform() >= plan_.link_drop_rate) return false;
  ++counts_.link_drops;
  c_link_drop_.add(1);
  return true;
}

double FaultInjector::latency_factor() {
  if (plan_.link_spike_rate <= 0.0) return 1.0;
  if (rng_.uniform() >= plan_.link_spike_rate) return 1.0;
  ++counts_.link_spikes;
  c_link_spike_.add(1);
  return plan_.link_spike_factor;
}

}  // namespace g6::fault
