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
#include <cstddef>
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

/// The widest Lanes<W> this host's CPU runs: 4 on an x86-64 CPU with the
/// x86-64-v3 extensions the force kernel's wide function is built for
/// (AVX2, FMA, BMI1/2; checked once per process), otherwise 2.
int host_lane_width();

/// The GCC/Clang vector types behind Lanes<W> and LaneInts<W>. (Declared
/// apart: GCC applies a dependent vector_size only on instantiation, so a
/// member of the class's own template would read as a plain scalar there.)
template <int W>
struct LaneVectors {
  using Doubles [[gnu::vector_size(8 * W)]] = double;
  using Bits [[gnu::vector_size(8 * W)]] = std::uint64_t;
};

/// W doubles side by side: the value type of the lane ops. A GCC/Clang
/// vector extension held in a struct — one SSE2 register for W = 2 at the
/// baseline x86-64 ISA, one AVX register for W = 4 in the force kernel's
/// x86-64-v3 function (src/grape/pipeline.cpp). No intrinsics, no -march.
///
/// Every function that takes or returns lanes is always_inline, takes them
/// by reference and returns the struct, never the bare vector: GCC checks
/// the return ABI of each function at that function's own ISA, so a
/// baseline-ISA template returning a bare 32-byte vector draws -Wpsabi
/// even when it is only ever inlined into the wide function. A -Wpsabi
/// diagnostic therefore means a wide vector really crossed a call.
template <int W>
struct Lanes {
  using Vec = typename LaneVectors<W>::Doubles;
  Vec v;

  /// x on every lane.
  [[gnu::always_inline]] static Lanes splat(double x) { return {x - Vec{}}; }
  /// p[0..W) — unaligned.
  [[gnu::always_inline]] static Lanes load(const double* p) {
    Lanes r{};
    __builtin_memcpy(&r.v, p, sizeof r.v);
    return r;
  }
  [[gnu::always_inline]] double operator[](int l) const { return v[l]; }

  [[gnu::always_inline]] friend Lanes operator-(const Lanes& a) {
    return {-a.v};
  }
  [[gnu::always_inline]] friend Lanes operator+(const Lanes& a, const Lanes& b) {
    return {a.v + b.v};
  }
  [[gnu::always_inline]] friend Lanes operator-(const Lanes& a, const Lanes& b) {
    return {a.v - b.v};
  }
  [[gnu::always_inline]] friend Lanes operator*(const Lanes& a, const Lanes& b) {
    return {a.v * b.v};
  }
  [[gnu::always_inline]] friend Lanes operator/(const Lanes& a, const Lanes& b) {
    return {a.v / b.v};
  }
  [[gnu::always_inline]] friend Lanes operator*(const Lanes& a, double s) {
    return {a.v * s};
  }
  [[gnu::always_inline]] friend Lanes operator*(double s, const Lanes& a) {
    return {s * a.v};
  }
  [[gnu::always_inline]] friend Lanes operator/(const Lanes& a, double s) {
    return {a.v / s};
  }
  [[gnu::always_inline]] friend Lanes operator/(double s, const Lanes& a) {
    return {s / a.v};
  }
};

/// W 64-bit integer words: fixed-point coordinates, and the lane masks
/// (all ones = true) that compares on Lanes produce.
template <int W>
struct LaneInts {
  using Vec = decltype(typename LaneVectors<W>::Doubles{} <
                       typename LaneVectors<W>::Doubles{});
  Vec v;

  [[gnu::always_inline]] static LaneInts splat(std::int64_t x) { return {Vec{} + x}; }
  [[gnu::always_inline]] std::int64_t operator[](int l) const { return v[l]; }
  /// True when some lane is nonzero.
  [[gnu::always_inline]] bool any() const {
    std::int64_t r = 0;
    for (int l = 0; l < W; ++l) r |= v[l];
    return r != 0;
  }

  [[gnu::always_inline]] friend LaneInts operator&(const LaneInts& a,
                                                     const LaneInts& b) {
    return {a.v & b.v};
  }
  [[gnu::always_inline]] friend LaneInts operator|(const LaneInts& a,
                                                     const LaneInts& b) {
    return {a.v | b.v};
  }
  [[gnu::always_inline]] LaneInts& operator|=(const LaneInts& b) {
    v |= b.v;
    return *this;
  }
};

/// The lanes {a[0], ..., a[W - 1]} (W = 2 or 4) of a small local array,
/// built in registers: a load from an array just written lane by lane
/// would stall on store forwarding.
template <class L, class T, std::size_t W>
[[gnu::always_inline]] inline L lanes_from(const T (&a)[W]) {
  static_assert(W == 2 || W == 4);
  using Vec = typename L::Vec;
  if constexpr (W == 2) {
    return L{Vec{a[0], a[1]}};
  } else {
    return L{Vec{a[0], a[1], a[2], a[3]}};
  }
}

/// std::sqrt on each lane: one packed square root where the build lets
/// sqrt skip errno (src/CMakeLists.txt).
template <int W>
[[gnu::always_inline]] inline Lanes<W> sqrt(const Lanes<W>& a) {
  Lanes<W> r{};
  for (int l = 0; l < W; ++l) r.v[l] = std::sqrt(a.v[l]);
  return r;
}

/// +0.0 on every lane whose mask is zero, a's value elsewhere.
template <int W>
[[gnu::always_inline]] inline Lanes<W> select(const LaneInts<W>& mask,
                                              const Lanes<W>& a) {
  using Ints = typename LaneInts<W>::Vec;
  return {__builtin_bit_cast(typename Lanes<W>::Vec,
                             mask.v & __builtin_bit_cast(Ints, a.v))};
}

/// FloatFormat's arithmetic units on W values at once — the lane ops of
/// the pipeline kernels (src/grape/pipeline.cpp).
///
/// Each op rounds with the bare round-to-nearest-even bit step of
/// quantize()'s fast path and defers the range check: a result that is
/// not zero or a normal number of the format (it is subnormal, saturates,
/// or is inf or NaN — the cases the scalar op hands to quantize_ref())
/// flags its lane instead of being handled, and the caller recomputes
/// flagged work with the scalar ops. On every unflagged lane the result is
/// bit-identical to the scalar op (tests/util/softfloat_test.cpp).
///
/// Build one where the ops run: the constructor is a few integer ops.
template <int W>
class LaneFormat {
 public:
  using V = Lanes<W>;
  using M = LaneInts<W>;

  /// Formats the deferred check covers: narrower than double, a finite
  /// max_value(), and a smallest normal above 2^-1022. The bit step can
  /// round a subnormal double up to 2^-1022 where the scalar op flushes
  /// it, so that value must fall below min_normal() and flag.
  static bool supports(const FloatFormat& f) {
    return f.frac_bits() >= 0 && f.frac_bits() < 52 && f.exp_min() >= -1020 &&
           f.exp_max() <= 1024;
  }

  /// No format: for a kernel instantiation that runs no format ops.
  LaneFormat() = default;

  /// min_normal() and max_value() are built from their bit fields, not
  /// with ldexp, so building a LaneFormat where the ops run costs a few
  /// integer ops.
  explicit LaneFormat(const FloatFormat& f) {
    G6_REQUIRE_MSG(supports(f), "lane ops need a normal-range format below double");
    shift_ = 52 - f.frac_bits();
    half_minus_one_ = (std::uint64_t{1} << (shift_ - 1)) - 1;
    keep_ = ~((std::uint64_t{1} << shift_) - 1);
    const auto biased = [](int e) { return static_cast<std::uint64_t>(e + 1022) << 52; };
    min_normal_ = V::splat(std::bit_cast<double>(biased(f.exp_min())));
    const std::uint64_t top_frac = keep_ & ((std::uint64_t{1} << 52) - 1);
    max_value_ = V::splat(std::bit_cast<double>(biased(f.exp_max()) | top_frac));
  }

  [[gnu::always_inline]] V quantize(const V& x) { return check(x.v, round(x.v)); }
  [[gnu::always_inline]] V add(const V& a, const V& b) { return quantize(a + b); }
  [[gnu::always_inline]] V sub(const V& a, const V& b) { return quantize(a - b); }
  [[gnu::always_inline]] V mul(const V& a, const V& b) { return quantize(a * b); }
  [[gnu::always_inline]] V mul(const V& a, double s) { return quantize(a * s); }
  [[gnu::always_inline]] V div(const V& a, const V& b) { return quantize(a / b); }
  [[gnu::always_inline]] V div(const V& a, double s) { return quantize(a / s); }

  /// rsqrt() on W lanes. A zero operand clamps to max_value() by a
  /// select; a negative or NaN operand — where the scalar op's
  /// precondition fails — flags its lane, so the scalar recompute raises
  /// the scalar op's PreconditionError.
  [[gnu::always_inline]] V rsqrt(const V& a) {
    ok_ &= a.v >= Vec{};
    const Vec q = (1.0 / sqrt(a)).v;
    const MVec zero = a.v == Vec{};
    const MVec r = (zero & __builtin_bit_cast(MVec, max_value_.v)) |
                   (~zero & __builtin_bit_cast(MVec, round(q).v));
    return check(q, {__builtin_bit_cast(Vec, r)});
  }

  /// All-ones on each lane flagged since the last call; re-arms the check.
  [[gnu::always_inline]] M take_flagged() {
    const M flagged{~ok_};
    ok_ = ~MVec{};
    return flagged;
  }

 private:
  using Vec = typename V::Vec;
  using MVec = typename M::Vec;
  using Bits = typename LaneVectors<W>::Bits;

  /// quantize()'s round-to-nearest-even step, without its range exits.
  [[gnu::always_inline]] V round(const Vec& x) const {
    const Bits b = __builtin_bit_cast(Bits, x);
    return {
        __builtin_bit_cast(Vec, (b + half_minus_one_ + ((b >> shift_) & 1U)) & keep_)};
  }

  /// Keep lane k unflagged iff r[k] is a normal number of the format, or
  /// the unrounded x[k] is +-0. Testing x rather than r for zero matters:
  /// the bit step can carry a NaN's payload into the sign bit and leave
  /// -0, which must still be flagged.
  [[gnu::always_inline]] V check(const Vec& x, const V& r) {
    const Vec mag =
        __builtin_bit_cast(Vec, __builtin_bit_cast(Bits, r.v) & 0x7fffffffffffffffULL);
    ok_ &= ((min_normal_.v <= mag) & (mag <= max_value_.v)) |
           (x == Vec{});
    return r;
  }

  V min_normal_{};
  V max_value_{};
  MVec ok_ = ~MVec{};
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
