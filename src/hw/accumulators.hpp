#pragma once
// The result-side hardware word format: the block floating-point
// accumulator bank one i-particle owns while a pass runs (Sec 3.4 of the
// paper). Lives in src/hw — the host<->board data contract layer — so the
// fault machinery can checksum, corrupt and vote on accumulator words
// without seeing the machine that produces them (docs/STATIC_ANALYSIS.md,
// "Layer graph").

#include "hw/formats.hpp"
#include "util/fixedpoint.hpp"

namespace g6 {

/// One i-slot's pass partial with the block exponents left implicit: the
/// seven BFP mantissas (acc x/y/z, jerk x/y/z, pot) and one overflow bit
/// each. A module's partial waits in this form for its board's summation
/// unit; 64 bytes against HwAccumulators' 224.
struct HwPartialWords {
  static constexpr int kWords = 7;
  std::int64_t mant[kWords] = {};
  std::uint8_t overflow = 0;  ///< bit w: word w overflowed

  /// The same exact add as BlockFloatAccumulator::merge, word by word.
  void merge(const HwPartialWords& o) {
    for (int w = 0; w < kWords; ++w) {
      if (BlockFloatAccumulator::add_overflows(mant[w], o.mant[w])) {
        overflow = static_cast<std::uint8_t>(overflow | (1u << w));
      }
    }
    overflow = static_cast<std::uint8_t>(overflow | o.overflow);
  }
};
static_assert(sizeof(HwPartialWords) <= 64);

/// Accumulator bank for one i-particle: 3 acceleration words, 3 jerk
/// words, 1 potential word, all block floating point.
struct HwAccumulators {
  BlockFloatAccumulator acc[3];
  BlockFloatAccumulator jerk[3];
  BlockFloatAccumulator pot;

  void reset(const BlockExponents& e) {
    for (auto& a : acc) a.reset(e.acc);
    for (auto& j : jerk) j.reset(e.jerk);
    pot.reset(e.pot);
  }

  bool overflow() const {
    for (const auto& a : acc)
      if (a.overflow()) return true;
    for (const auto& j : jerk)
      if (j.overflow()) return true;
    return pot.overflow();
  }

  /// Exact merge (the module/board/network-board reduction tree).
  void merge(const HwAccumulators& o) {
    for (int d = 0; d < 3; ++d) {
      acc[d].merge(o.acc[d]);
      jerk[d].merge(o.jerk[d]);
    }
    pot.merge(o.pot);
  }

  /// The same merges, from a partial taken on this bank's exponents.
  void merge(const HwPartialWords& o) {
    for (int w = 0; w < HwPartialWords::kWords; ++w) {
      word(w).merge_word(o.mant[w], ((o.overflow >> w) & 1u) != 0);
    }
  }

  /// This bank's words, exponents dropped.
  HwPartialWords words() const {
    HwPartialWords p;
    for (int w = 0; w < HwPartialWords::kWords; ++w) {
      p.mant[w] = word(w).mantissa();
      if (word(w).overflow()) p.overflow = static_cast<std::uint8_t>(p.overflow | (1u << w));
    }
    return p;
  }

  /// Word w in HwPartialWords order: acc x/y/z, jerk x/y/z, pot.
  BlockFloatAccumulator& word(int w) {
    return w < 3 ? acc[w] : w < 6 ? jerk[w - 3] : pot;
  }
  const BlockFloatAccumulator& word(int w) const {
    return w < 3 ? acc[w] : w < 6 ? jerk[w - 3] : pot;
  }

  /// Decode to a host-side force.
  Force decode() const {
    Force f;
    f.acc = {acc[0].value(), acc[1].value(), acc[2].value()};
    f.jerk = {jerk[0].value(), jerk[1].value(), jerk[2].value()};
    f.pot = pot.value();
    return f;
  }
};

}  // namespace g6
