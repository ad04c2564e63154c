#pragma once
// Reduced-precision floating-point arithmetic emulation.
//
// The GRAPE-6 pipeline computes in hardware number formats much narrower
// than IEEE double. We model a hardware format as (sign, exponent range,
// fraction bits) and emulate each arithmetic unit as "compute in double,
// then round correctly to the target format" — i.e. every op is correctly
// rounded in the emulated format, which matches a well-designed hardware
// unit to within its own rounding spec.
//
// Values are carried around as plain doubles that happen to be exactly
// representable in the narrow format; FloatFormat::quantize() is the only
// place rounding happens.

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "util/check.hpp"

namespace g6 {

/// A hardware floating-point format: 1 sign bit, `frac_bits` explicit
/// fraction bits (plus the implicit leading one), and a biased exponent
/// covering binary exponents [exp_min, exp_max] for the frexp convention
/// (value = m * 2^e with m in [0.5, 1)).
class FloatFormat {
 public:
  constexpr FloatFormat(int frac_bits, int exp_min, int exp_max)
      : frac_bits_(frac_bits), exp_min_(exp_min), exp_max_(exp_max) {}

  int frac_bits() const { return frac_bits_; }
  int exp_min() const { return exp_min_; }
  int exp_max() const { return exp_max_; }

  /// Largest finite magnitude of the format.
  double max_value() const {
    const double m = 1.0 - std::ldexp(1.0, -(frac_bits_ + 1));
    return std::ldexp(m, exp_max_);
  }

  /// Smallest positive normal magnitude (we flush subnormals to zero, as
  /// the hardware does).
  double min_normal() const { return std::ldexp(0.5, exp_min_); }

  /// Round-to-nearest-even into this format. Underflow flushes to zero,
  /// overflow saturates to +-max_value() (the hardware clamps rather than
  /// producing infinities).
  ///
  /// The inline body is the normal-number fast path: integer bit
  /// manipulation on the IEEE-754 word, so the per-op rounding of the
  /// emulated pipeline costs integer adds, not libm calls. Every other
  /// case — a subnormal, infinite or NaN operand, or a result that
  /// flushes or saturates — takes one out-of-line cold call to
  /// quantize_ref(), which gives the same bits; keeping those exits out
  /// of line keeps quantize() small enough to inline at every call site.
  /// tests/grape/pipeline_crosscheck_test checks the fast path against
  /// quantize_ref() over structured and random bit patterns.
  double quantize(double x) const {
    std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
    const std::uint64_t mag = bits & 0x7fffffffffffffffULL;
    if (mag == 0) return x;  // +-0 passes through
    // One unsigned compare admits exactly the normal doubles [2^-1022, inf).
    if (mag - 0x0010000000000000ULL >= 0x7fe0000000000000ULL) {
      return quantize_ref(x);
    }
    if (frac_bits_ < 52) {
      // Round-to-nearest-even at fraction bit `frac_bits_`: add half an
      // ULP minus one when the kept LSB is even, so ties snap to even.
      // A mantissa carry propagates into the exponent field, which is
      // exactly the "rounding carried into the next binade" case.
      const int shift = 52 - frac_bits_;
      bits += (std::uint64_t{1} << (shift - 1)) - (~(bits >> shift) & 1U);
      bits &= ~((std::uint64_t{1} << shift) - 1);
    }
    // frexp convention: value = m * 2^e with |m| in [0.5, 1), so
    // e = unbiased exponent + 1. An exponent field that carried to 0x7ff
    // yields e = 1025 > exp_max for every representable format.
    const int e = static_cast<int>((bits >> 52) & 0x7ffU) - 1022;
    if (e < exp_min_ || e > exp_max_) return quantize_ref(x);
    return std::bit_cast<double>(bits);
  }

  /// Reference formulation of quantize(): compute in double, round with
  /// libm. The independently-derived oracle the fast path is checked
  /// against, and the fast path's own exit for the rare cases above.
  [[gnu::cold]] double quantize_ref(double x) const;

  /// True when x is exactly representable (used in tests/assertions).
  bool representable(double x) const { return quantize(x) == x; }

  // --- correctly-rounded emulated arithmetic units -----------------------
  double add(double a, double b) const { return quantize(a + b); }
  double sub(double a, double b) const { return quantize(a - b); }
  double mul(double a, double b) const { return quantize(a * b); }
  double div(double a, double b) const { return quantize(a / b); }
  double sqrt(double a) const { return quantize(std::sqrt(a)); }

  /// Reciprocal square root. GRAPE pipelines implement this as a table
  /// lookup plus Newton iteration with final accuracy ~1 ulp of the short
  /// format; correctly-rounded is the idealization of that unit.
  double rsqrt(double a) const {
    G6_REQUIRE_MSG(a >= 0.0, "rsqrt of negative operand");
    if (a == 0.0) return max_value();  // hardware clamps 1/sqrt(0)
    return quantize(1.0 / std::sqrt(a));
  }

  std::string describe() const;

  friend bool operator==(const FloatFormat& a, const FloatFormat& b) {
    return a.frac_bits_ == b.frac_bits_ && a.exp_min_ == b.exp_min_ &&
           a.exp_max_ == b.exp_max_;
  }

 private:
  int frac_bits_;
  int exp_min_;
  int exp_max_;
};

/// Two doubles side by side: a GCC/Clang vector extension, one SSE2
/// register at the baseline x86-64 ISA (no intrinsics, no -march).
using Lanes = double __attribute__((vector_size(16)));
/// Two 64-bit integer words: fixed-point coordinates, and the lane masks
/// (all ones = true) that compares on Lanes produce.
using LaneInts = decltype(Lanes{} < Lanes{});

/// std::sqrt on each lane.
inline Lanes sqrt(Lanes a) { return Lanes{std::sqrt(a[0]), std::sqrt(a[1])}; }

/// FloatFormat's arithmetic units on two values at once — the lane ops of
/// the pipeline kernels (src/grape/pipeline.cpp).
///
/// Each op rounds with the bare round-to-nearest-even bit step of
/// quantize()'s fast path and defers the range check: a result that is
/// not zero or a normal number of the format (it is subnormal, saturates,
/// or is inf or NaN — the cases the scalar op hands to quantize_ref())
/// flags its lane instead of being handled, and the caller recomputes
/// flagged work with the scalar ops. On every unflagged lane the result is
/// bit-identical to the scalar op (tests/util/softfloat_test.cpp).
class LaneFormat {
 public:
  /// Formats the deferred check covers: narrower than double, a finite
  /// max_value(), and a smallest normal above 2^-1022. The bit step can
  /// round a subnormal double up to 2^-1022 where the scalar op flushes
  /// it, so that value must fall below min_normal() and flag.
  static bool supports(const FloatFormat& f) {
    return f.frac_bits() >= 0 && f.frac_bits() < 52 && f.exp_min() >= -1020 &&
           f.exp_max() <= 1024;
  }

  explicit LaneFormat(const FloatFormat& f)
      : min_normal_{f.min_normal(), f.min_normal()},
        max_value_{f.max_value(), f.max_value()} {
    G6_REQUIRE_MSG(supports(f), "lane ops need a normal-range format below double");
    shift_ = 52 - f.frac_bits();
    half_minus_one_ = (std::uint64_t{1} << (shift_ - 1)) - 1;
    keep_ = ~((std::uint64_t{1} << shift_) - 1);
  }

  Lanes quantize(Lanes x) { return check(x, round(x)); }
  Lanes add(Lanes a, Lanes b) { return quantize(a + b); }
  Lanes sub(Lanes a, Lanes b) { return quantize(a - b); }
  Lanes mul(Lanes a, Lanes b) { return quantize(a * b); }
  Lanes mul(Lanes a, double s) { return quantize(a * s); }
  Lanes div(Lanes a, Lanes b) { return quantize(a / b); }
  Lanes div(Lanes a, double s) { return quantize(a / s); }

  /// rsqrt() on two lanes. A zero operand clamps to max_value() by a
  /// select; a negative or NaN operand — where the scalar op's
  /// precondition fails — flags its lane, so the scalar recompute raises
  /// the scalar op's PreconditionError.
  Lanes rsqrt(Lanes a) {
    ok_ &= a >= Lanes{};
    const Lanes q = 1.0 / sqrt(a);
    const LaneInts zero = a == Lanes{};
    const LaneInts r = (zero & std::bit_cast<LaneInts>(max_value_)) |
                       (~zero & std::bit_cast<LaneInts>(round(q)));
    return check(q, std::bit_cast<Lanes>(r));
  }

  /// All-ones on each lane flagged since the last call; re-arms the check.
  LaneInts take_flagged() {
    const LaneInts flagged = ~ok_;
    ok_ = ~LaneInts{};
    return flagged;
  }

 private:
  using LaneBits = std::uint64_t __attribute__((vector_size(16)));

  /// quantize()'s round-to-nearest-even step, without its range exits.
  Lanes round(Lanes x) const {
    const LaneBits b = std::bit_cast<LaneBits>(x);
    return std::bit_cast<Lanes>((b + half_minus_one_ + ((b >> shift_) & 1U)) & keep_);
  }

  /// Keep lane k unflagged iff r[k] is a normal number of the format, or
  /// the unrounded x[k] is +-0. Testing x rather than r for zero matters:
  /// the bit step can carry a NaN's payload into the sign bit and leave
  /// -0, which must still be flagged.
  Lanes check(Lanes x, Lanes r) {
    const Lanes mag = std::bit_cast<Lanes>(std::bit_cast<LaneBits>(r) &
                                           0x7fffffffffffffffULL);
    ok_ &= ((min_normal_ <= mag) & (mag <= max_value_)) | (x == Lanes{});
    return r;
  }

  Lanes min_normal_;
  Lanes max_value_;
  LaneInts ok_ = ~LaneInts{};
  int shift_ = 0;
  std::uint64_t half_minus_one_ = 0;
  std::uint64_t keep_ = 0;
};

namespace formats {

/// Main pipeline arithmetic word (single-precision-like, as in the
/// GRAPE-6 force pipeline datapath).
constexpr FloatFormat pipeline() { return {24, -126, 127}; }

/// Velocity / jerk input word (32-bit float).
constexpr FloatFormat velocity() { return {24, -126, 127}; }

/// On-chip predictor pipeline word — slightly narrower than the force
/// datapath; the predictor only needs enough precision for Dt <= dt_j.
constexpr FloatFormat predictor() { return {20, -126, 127}; }

/// IEEE double (identity quantization for practical purposes); used to run
/// the same pipeline code at full precision for A/B accuracy studies.
constexpr FloatFormat ieee_double() { return {52, -1022, 1023}; }

}  // namespace formats

}  // namespace g6
