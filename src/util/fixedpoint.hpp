#pragma once
// Fixed-point and block floating-point arithmetic for the GRAPE-6
// emulator.
//
// Two hardware mechanisms live here:
//
//  * FixedPointCodec — the 64-bit fixed-point coordinate format. Particle
//    positions are sent to the hardware as 64-bit integers scaled so that a
//    software-chosen coordinate range maps onto the full word. Position
//    differences x_j - x_i are then exact in hardware.
//
//  * BlockFloatAccumulator — the block floating-point partial-force format
//    (paper Sec 3.4). The exponent of the result is fixed *before* the
//    calculation; every addend is shifted onto that grid (one rounding) and
//    then accumulated in exact 64-bit integer arithmetic. Summation is
//    therefore associative and commutative while no partial sum
//    overflows: the result is bit-identical regardless of how many
//    chips/boards the sum is split across. The overflow flag is not
//    associative (add_overflows), so reductions run in a fixed order. If the
//    chosen exponent is too small the accumulator raises an overflow flag
//    and the engine retries with a larger exponent — the "repeat the force
//    calculation a few times until we have a good guess" behaviour the
//    paper describes.

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "util/check.hpp"
#include "util/softfloat.hpp"

namespace g6 {

/// Round to the nearest integer, ties to even: std::llrint in the default
/// rounding mode, for |x| < 2^62, without the libm call. Below 2^52,
/// adding and subtracting copysign(2^52, x) lands x on the integer grid
/// with the FPU's own round-to-nearest-even; from 2^52 up every double is
/// an integer already and the cast is exact.
inline std::int64_t round_to_int64(double x) {
  if (std::fabs(x) < 0x1p52) {
    const double magic = std::copysign(0x1p52, x);
    x = (x + magic) - magic;
  }
  return static_cast<std::int64_t>(x);
}

/// round_to_int64 on W lanes, |x| < 2^62, with no packed double-to-int64
/// convert (x86 has none below AVX-512): adding 1.5 * 2^84 rounds x to a
/// multiple hi of 2^32, ties to even; the rest lo = x - hi is exact, and
/// adding 1.5 * 2^52 rounds it to an integer. Both sums sit in a binade
/// where the bit pattern counts ulps, and shifting x by the even integer
/// hi commutes with ties-to-even, so hi + round(lo) is round_to_int64(x).
template <int W>
[[gnu::always_inline]] inline LaneInts<W> round_to_int64(const Lanes<W>& x) {
  using Bits = typename LaneVectors<W>::Bits;
  constexpr double kHi = 0x1.8p84;
  constexpr double kLo = 0x1.8p52;
  const auto hi = x.v + kHi;
  const auto lo = (x.v - (hi - kHi)) + kLo;
  constexpr std::uint64_t kBias =
      (std::bit_cast<std::uint64_t>(kHi) << 32) + std::bit_cast<std::uint64_t>(kLo);
  const Bits q =
      (__builtin_bit_cast(Bits, hi) << 32) + __builtin_bit_cast(Bits, lo) - kBias;
  return {__builtin_bit_cast(typename LaneInts<W>::Vec, q)};
}

/// Encode/decode doubles to the 64-bit fixed-point coordinate word.
///
/// Coordinates in (-range, +range) map to the full signed 64-bit span with
/// two guard bits of headroom so that differences of in-range values never
/// wrap.
class FixedPointCodec {
 public:
  explicit FixedPointCodec(double range) : range_(range) {
    G6_REQUIRE_MSG(range > 0.0, "coordinate range must be positive");
    scale_ = std::ldexp(1.0, 61) / range;  // 2 guard bits
    inv_scale_ = 1.0 / scale_;
  }

  double range() const { return range_; }

  /// Spacing of the representable grid.
  double resolution() const { return inv_scale_; }

  std::int64_t encode(double x) const {
    const double s = x * scale_;
    G6_REQUIRE_MSG(std::fabs(s) < std::ldexp(1.0, 62),
                   "coordinate outside fixed-point range");
    return round_to_int64(s);
  }

  double decode(std::int64_t q) const { return static_cast<double>(q) * inv_scale_; }
  /// decode() on W lanes, with no packed int64-to-double convert: a word's
  /// high half (sign-flipped) and low half go exactly into the mantissas
  /// of 2^84 and 2^52, and one subtract and one add round hi * 2^32 + lo
  /// once, to nearest even, as the scalar cast does.
  template <int W>
  [[gnu::always_inline]] Lanes<W> decode(const LaneInts<W>& q) const {
    using Bits = typename LaneVectors<W>::Bits;
    using Vec = typename Lanes<W>::Vec;
    const Bits b = __builtin_bit_cast(Bits, q.v);
    const Vec hi =
        __builtin_bit_cast(Vec, ((b >> 32) ^ 0x80000000U) | 0x4530000000000000U);
    const Vec lo = __builtin_bit_cast(Vec, (b & 0xffffffffU) | 0x4330000000000000U);
    return {((hi - (0x1p84 + 0x1p63 + 0x1p52)) + lo) * inv_scale_};
  }

  /// Round-trip a double through the hardware grid.
  double quantize(double x) const { return decode(encode(x)); }

 private:
  double range_;
  double scale_;
  double inv_scale_;
};

/// Block floating-point accumulator: value = mant * 2^(block_exp - kFracBits).
///
/// `block_exp` is the binary exponent of the full-scale value: the
/// accumulator can hold magnitudes up to ~2^(block_exp + kHeadroomBits)
/// before overflowing, with kFracBits fraction bits of resolution below
/// 2^block_exp.
class BlockFloatAccumulator {
 public:
  /// Fraction bits kept below the full-scale exponent.
  static constexpr int kFracBits = 56;
  /// Headroom above full scale before the 64-bit word overflows.
  static constexpr int kHeadroomBits = 62 - kFracBits;

  BlockFloatAccumulator() = default;
  explicit BlockFloatAccumulator(int block_exp) { reset(block_exp); }

  /// Clear the sum and (re)fix the block exponent.
  void reset(int block_exp) {
    block_exp_ = block_exp;
    mant_ = 0;
    overflow_ = false;
    // Cache the grid scale so add() is one multiply instead of a per-call
    // ldexp; outside its window add() falls back to ldexp.
    scale_ = grid_scale(block_exp);
    scale_exact_ = scale_ != 0.0;
  }

  /// The grid scale 2^(kFracBits - block_exp) of a word on `block_exp`, or
  /// 0 outside the window where it is a normal double. A power-of-two
  /// multiply is exact (identical to ldexp) inside that window, so add()
  /// multiplies there and calls ldexp outside it, keeping the two
  /// formulations bit-identical everywhere. 2^k is built from its exponent
  /// field, no libm call.
  static double grid_scale(int block_exp) {
    const int k = kFracBits - block_exp;
    return k >= -1021 && k <= 1023
               ? std::bit_cast<double>(static_cast<std::uint64_t>(k + 1023) << 52)
               : 0.0;
  }

  int block_exp() const { return block_exp_; }
  /// The cached grid scale, grid_scale(block_exp()).
  double scale() const { return scale_; }
  bool overflow() const { return overflow_; }
  std::int64_t mantissa() const { return mant_; }

  /// Fault-injection hooks (src/fault): mutate the mantissa word in
  /// place, modelling a bit upset in the accumulator register (xor) or a
  /// pipeline whose output register is stuck at a constant (set). The
  /// production dataflow never calls these; only FaultInjector does.
  void fault_xor_mantissa(std::int64_t mask) { mant_ ^= mask; }
  void fault_set_mantissa(std::int64_t mant) { mant_ = mant; }

  /// Add a value, rounding it once onto the block grid. Sets the overflow
  /// flag if either the addend or the running sum exceeds the headroom.
  void add(double x) { step(mant_, overflow_, x); }

  /// Merge another accumulator with the same block exponent (the
  /// board-level FPGA reduction tree). Exact integer addition.
  void merge(const BlockFloatAccumulator& other) {
    G6_REQUIRE_MSG(other.block_exp_ == block_exp_,
                   "merging accumulators with different block exponents");
    merge_word(other.mant_, other.overflow_);
  }

  /// Merge a bare partial word (mantissa + flag) taken on this
  /// accumulator's block exponent.
  void merge_word(std::int64_t mant, bool overflow) {
    overflow_ = add_overflows(mant_, mant) || overflow_ || overflow;
  }

  /// One adder of the reduction tree: mant += other, exactly. Returns
  /// true, leaving `mant` unchanged, when an int64 sum overflows. The
  /// flag comes from this intermediate sum, so regrouping a merge tree
  /// can change it: with a = b = 2^62 + 2^61, (a + b) + (-a) overflows
  /// while a + (b + (-a)) does not. That is why every reduction in the
  /// engine runs in one fixed order.
  static bool add_overflows(std::int64_t& mant, std::int64_t other) {
    std::int64_t sum = 0;
    if (__builtin_add_overflow(mant, other, &sum)) return true;
    mant = sum;
    return false;
  }

  /// Decoded value.
  double value() const {
    return std::ldexp(static_cast<double>(mant_), block_exp_ - kFracBits);
  }

 private:
  /// One add() on a mantissa and flag held by the caller.
  [[gnu::always_inline]] void step(std::int64_t& mant, bool& overflow, double x) const {
    if (x == 0.0) return;
    const double scaled =
        scale_exact_ ? x * scale_ : std::ldexp(x, kFracBits - block_exp_);
    if (!(std::fabs(scaled) < 0x1p62)) {
      overflow = true;
      return;
    }
    if (add_overflows(mant, round_to_int64(scaled))) overflow = true;
  }

  std::int64_t mant_ = 0;
  int block_exp_ = 0;
  bool overflow_ = false;
  double scale_ = 0x1p56;  ///< 2^(kFracBits - block_exp_) for the defaults
  bool scale_exact_ = true;
  static_assert(kFracBits == 56, "scale_ default initializer must be 2^kFracBits");

  template <int W>
  friend struct LaneAccumulator;
};

/// W BlockFloatAccumulator words side by side, one per lane: the adds and
/// merges of the i-lane force kernel (src/grape/pipeline.cpp). add() is
/// add() on every lane — the same grid rounding, int64 sum and overflow
/// flag — with no branch: a zero addend rounds to 0 and leaves the lane
/// alone. Each lane's scale must be exact (grid_scale() != 0).
template <int W>
struct LaneAccumulator {
  LaneInts<W> mant;
  LaneInts<W> overflow;  ///< all ones on a flagged lane
  Lanes<W> scale;

  /// Lane l from *words[l]: mantissa, flag and scale.
  [[gnu::always_inline]] void load(const BlockFloatAccumulator* const (&words)[W]) {
    std::int64_t m[W];
    std::int64_t f[W];
    double s[W];
    for (int l = 0; l < W; ++l) {
      m[l] = words[l]->mant_;
      f[l] = words[l]->overflow_ ? -1 : 0;
      s[l] = words[l]->scale_;
    }
    mant = lanes_from<LaneInts<W>>(m);
    overflow = lanes_from<LaneInts<W>>(f);
    scale = lanes_from<Lanes<W>>(s);
  }
  /// Lanes [0, n) to *words[l]: the mantissa replaces the word's, the flag
  /// is ORed into its flag.
  [[gnu::always_inline]] void store(BlockFloatAccumulator* const (&words)[W],
                                    int n) const {
    for (int l = 0; l < n; ++l) {
      words[l]->mant_ = mant.v[l];
      words[l]->overflow_ = words[l]->overflow_ || overflow.v[l] != 0;
    }
  }

  /// An addend at or past 2^62 on the grid (or inf, NaN) flags its lane
  /// and adds nothing; an int64 sum that overflows flags its lane and
  /// keeps the mantissa, as add_overflows() does.
  [[gnu::always_inline]] void add(const Lanes<W>& x) {
    using Bits = typename LaneVectors<W>::Bits;
    using Ints = typename LaneInts<W>::Vec;
    const Lanes<W> scaled{x.v * scale.v};
    const Bits mag = __builtin_bit_cast(Bits, scaled.v) & 0x7fffffffffffffffU;
    const Ints ok = __builtin_bit_cast(typename Lanes<W>::Vec, mag) < 0x1p62;
    add_word(__builtin_bit_cast(Bits, round_to_int64(scaled).v & ok));
    overflow.v |= ~ok;
  }

  /// merge_word() on every lane: o's words (taken on the same exponents)
  /// added exactly, a wrapping sum flagged with the mantissa kept, and
  /// o's flags ORed in.
  [[gnu::always_inline]] void merge(const LaneAccumulator& o) {
    add_word(__builtin_bit_cast(typename LaneVectors<W>::Bits, o.mant.v));
    overflow.v |= o.overflow.v;
  }

 private:
  /// add_overflows() on every lane.
  [[gnu::always_inline]] void add_word(const typename LaneVectors<W>::Bits& q) {
    using Bits = typename LaneVectors<W>::Bits;
    using Ints = typename LaneInts<W>::Vec;
    const Bits m = __builtin_bit_cast(Bits, mant.v);
    const Bits sum = m + q;
    const Ints wrapped = __builtin_bit_cast(Ints, (m ^ sum) & (q ^ sum)) < 0;
    mant.v = __builtin_bit_cast(Ints, sum - (q & __builtin_bit_cast(Bits, wrapped)));
    overflow.v |= wrapped;
  }
};

/// Choose a block exponent such that `magnitude_estimate` sits comfortably
/// inside the accumulator headroom. `margin_bits` extra bits absorb
/// step-to-step growth of the force (the engine reuses the previous step's
/// exponent, so a small margin keeps retries rare).
inline int choose_block_exponent(double magnitude_estimate, int margin_bits = 2) {
  if (magnitude_estimate <= 0.0 || !std::isfinite(magnitude_estimate)) return 0;
  int e = 0;
  (void)std::frexp(magnitude_estimate, &e);
  return e + margin_bits;
}

}  // namespace g6
