#include "util/softfloat.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/rng.hpp"

namespace g6 {
namespace {

TEST(FloatFormat, ExactValuesPassThrough) {
  const FloatFormat f = formats::pipeline();
  EXPECT_EQ(f.quantize(0.0), 0.0);
  EXPECT_EQ(f.quantize(1.0), 1.0);
  EXPECT_EQ(f.quantize(-0.5), -0.5);
  EXPECT_EQ(f.quantize(1.5), 1.5);
  EXPECT_EQ(f.quantize(std::ldexp(1.0, 100)), std::ldexp(1.0, 100));
}

TEST(FloatFormat, RoundsToNearestEven) {
  // A 2-fraction-bit toy format: representable mantissas 4,5,6,7 (/8..).
  const FloatFormat f(2, -30, 30);
  // In [1,2): grid spacing 0.25.
  EXPECT_EQ(f.quantize(1.1), 1.0);
  EXPECT_EQ(f.quantize(1.2), 1.25);
  // Tie 1.125 -> even neighbour 1.0 (mantissa 8/8 even vs 9/8).
  EXPECT_EQ(f.quantize(1.125), 1.0);
  // Tie 1.375 -> 1.5 (even).
  EXPECT_EQ(f.quantize(1.375), 1.5);
}

TEST(FloatFormat, RoundingCarryPropagatesToNextBinade) {
  const FloatFormat f(2, -30, 30);
  // 1.96875 rounds up past 2.0.
  EXPECT_EQ(f.quantize(1.97), 2.0);
}

TEST(FloatFormat, UnderflowFlushesToZero) {
  const FloatFormat f(8, -10, 10);
  EXPECT_EQ(f.quantize(std::ldexp(1.0, -20)), 0.0);
  EXPECT_EQ(f.quantize(-std::ldexp(1.0, -20)), 0.0);
  EXPECT_GT(f.min_normal(), 0.0);
  EXPECT_EQ(f.quantize(f.min_normal()), f.min_normal());
}

TEST(FloatFormat, OverflowSaturates) {
  const FloatFormat f(8, -10, 10);
  EXPECT_EQ(f.quantize(std::ldexp(1.0, 40)), f.max_value());
  EXPECT_EQ(f.quantize(-std::ldexp(1.0, 40)), -f.max_value());
  EXPECT_EQ(f.quantize(f.max_value()), f.max_value());
}

TEST(FloatFormat, QuantizeIsIdempotent) {
  const FloatFormat f = formats::predictor();
  for (double x : {3.14159265358979, -1e-7, 123456.789, 0.1, -0.3}) {
    const double q = f.quantize(x);
    EXPECT_EQ(f.quantize(q), q) << x;
    EXPECT_TRUE(f.representable(q));
  }
}

TEST(FloatFormat, RelativeErrorBound) {
  const FloatFormat f = formats::pipeline();  // 24 fraction bits
  const double ulp = std::ldexp(1.0, -24);
  for (double x : {1.0 / 3.0, 2.0 / 7.0, 1e5 / 3.0, -1e-3 / 3.0}) {
    const double q = f.quantize(x);
    EXPECT_LE(std::fabs(q - x) / std::fabs(x), 0.5 * ulp * (1 + 1e-12)) << x;
  }
}

TEST(FloatFormat, ArithmeticIsCorrectlyRounded) {
  const FloatFormat f(10, -126, 127);
  const double a = f.quantize(1.0 / 3.0);
  const double b = f.quantize(2.0 / 7.0);
  EXPECT_EQ(f.add(a, b), f.quantize(a + b));
  EXPECT_EQ(f.mul(a, b), f.quantize(a * b));
  EXPECT_EQ(f.div(a, b), f.quantize(a / b));
  EXPECT_EQ(f.sqrt(a), f.quantize(std::sqrt(a)));
  EXPECT_EQ(f.rsqrt(a), f.quantize(1.0 / std::sqrt(a)));
}

TEST(FloatFormat, RsqrtClampsAtZero) {
  const FloatFormat f = formats::pipeline();
  EXPECT_EQ(f.rsqrt(0.0), f.max_value());
  EXPECT_THROW(f.rsqrt(-1.0), PreconditionError);
}

TEST(FloatFormat, IeeeDoubleIsIdentityForNormalRange) {
  const FloatFormat f = formats::ieee_double();
  for (double x : {3.141592653589793, -2.718281828459045e-100, 6.02e23}) {
    EXPECT_EQ(f.quantize(x), x);
  }
}

// --- lane ops ----------------------------------------------------------------

/// Operands for the lane-op checks: normal values across the exponent
/// range, rounding ties, format boundaries, zeros, subnormal doubles,
/// infinities, and NaNs — one with an all-ones payload, which the bare
/// rounding step carries into the sign bit. The largest subnormal double
/// rounds up to 2^-1022 on the bit grid, while the scalar op flushes it.
std::vector<double> lane_probes() {
  const double max_subnormal = std::ldexp(1.0, -1022) - std::ldexp(1.0, -1074);
  std::vector<double> p = {0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 5e-324,
                           max_subnormal, -max_subnormal, std::ldexp(1.0, -1022),
                           std::nextafter(std::ldexp(1.0, -1021), 0.0),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(),
                           std::bit_cast<double>(0x7fffffffffffffffULL),
                           std::bit_cast<double>(0xffffffffffffffffULL)};
  for (int e = -140; e <= 140; e += 3) {
    for (double m : {1.0, 1.5, 1.0 + std::ldexp(1.0, -24),
                     1.0 + std::ldexp(3.0, -25), 1.999999}) {
      p.push_back(std::ldexp(m, e));
      p.push_back(-std::ldexp(m, e));
    }
  }
  Rng rng(0x1a9e);
  for (int i = 0; i < 4000; ++i) {
    p.push_back(std::bit_cast<double>(rng.next_u64()));
    p.push_back(std::ldexp(rng.uniform(-1.0, 1.0), static_cast<int>(rng.uniform(-150, 150))));
  }
  return p;
}

/// An unflagged lane must carry the scalar op's exact bits; a flagged one
/// is recomputed by the caller and may hold anything.
void expect_lane(double lane, bool flagged, double scalar, const char* op,
                 double a, double b) {
  if (flagged) return;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(lane), std::bit_cast<std::uint64_t>(scalar))
      << op << '(' << std::hexfloat << a << ", " << b << ')';
}

TEST(LaneFormat, UnflaggedLanesMatchScalarOps) {
  const FloatFormat fmts[] = {formats::pipeline(), formats::predictor(),
                              FloatFormat(4, -8, 7), FloatFormat(12, -20, 63),
                              FloatFormat(51, -1020, 1024)};
  const auto probes = lane_probes();
  for (const auto& f : fmts) {
    ASSERT_TRUE(LaneFormat::supports(f));
    LaneFormat lanes(f);
    for (std::size_t i = 0; i + 1 < probes.size(); ++i) {
      const double a = probes[i];
      const double b = probes[i + 1];
      const Lanes va = {a, b};
      const Lanes vb = {b, a};
      const auto check = [&](Lanes r, const char* op, auto scalar) {
        const LaneInts flagged = lanes.take_flagged();
        expect_lane(r[0], flagged[0] != 0, scalar(a, b), op, a, b);
        expect_lane(r[1], flagged[1] != 0, scalar(b, a), op, b, a);
      };
      check(lanes.quantize(va), "quantize", [&](double x, double) { return f.quantize(x); });
      check(lanes.add(va, vb), "add", [&](double x, double y) { return f.add(x, y); });
      check(lanes.sub(va, vb), "sub", [&](double x, double y) { return f.sub(x, y); });
      check(lanes.mul(va, vb), "mul", [&](double x, double y) { return f.mul(x, y); });
      check(lanes.mul(va, 3.0), "mul3", [&](double x, double) { return f.mul(x, 3.0); });
      check(lanes.div(va, vb), "div", [&](double x, double y) { return f.div(x, y); });
      // The scalar rsqrt throws on a negative or NaN operand; the lane op
      // must flag those lanes.
      const Lanes r = lanes.rsqrt(va);
      const LaneInts flagged = lanes.take_flagged();
      for (int l = 0; l < 2; ++l) {
        if (!(va[l] >= 0.0)) {
          EXPECT_NE(flagged[l], 0) << "rsqrt(" << std::hexfloat << va[l] << ')';
        } else {
          expect_lane(r[l], flagged[l] != 0, f.rsqrt(va[l]), "rsqrt", va[l], 0.0);
        }
      }
    }
  }
}

TEST(LaneFormat, FlagsExactlyTheOutOfRangeResults) {
  const FloatFormat f(8, -10, 10);
  LaneFormat lanes(f);
  const auto flagged = [&](double x) {
    lanes.quantize(Lanes{x, 1.0});
    const LaneInts m = lanes.take_flagged();
    EXPECT_EQ(m[1], 0);  // the in-range partner lane stays clean
    return m[0] != 0;
  };
  // Zero and in-range normals take the lane path...
  EXPECT_FALSE(flagged(0.0));
  EXPECT_FALSE(flagged(-0.0));
  EXPECT_FALSE(flagged(f.min_normal()));
  EXPECT_FALSE(flagged(-f.max_value()));
  EXPECT_FALSE(flagged(1.0 / 3.0));
  // ...flush, saturation, subnormal doubles, inf and NaN do not.
  EXPECT_TRUE(flagged(std::ldexp(1.0, -20)));
  EXPECT_TRUE(flagged(std::ldexp(1.0, 40)));
  EXPECT_FALSE(flagged(std::nextafter(f.max_value(), 1e300)));  // rounds to max
  EXPECT_TRUE(flagged(f.max_value() + 1.0));  // the tie above max rounds past it
  EXPECT_TRUE(flagged(5e-324));
  EXPECT_TRUE(flagged(std::numeric_limits<double>::infinity()));
  EXPECT_TRUE(flagged(std::bit_cast<double>(0x7fffffffffffffffULL)));
  // rsqrt: a zero operand clamps to max_value() without a flag; negative
  // and NaN operands flag.
  const Lanes r = lanes.rsqrt(Lanes{0.0, 4.0});
  EXPECT_EQ(lanes.take_flagged()[0], 0);
  EXPECT_EQ(r[0], f.max_value());
  EXPECT_EQ(r[1], 0.5);
  lanes.rsqrt(Lanes{-1.0, std::numeric_limits<double>::quiet_NaN()});
  const LaneInts bad = lanes.take_flagged();
  EXPECT_NE(bad[0], 0);
  EXPECT_NE(bad[1], 0);
}

TEST(LaneFormat, SupportsOnlyNormalRangeFormatsBelowDouble) {
  EXPECT_TRUE(LaneFormat::supports(formats::pipeline()));
  EXPECT_FALSE(LaneFormat::supports(formats::ieee_double()));
  EXPECT_FALSE(LaneFormat::supports(FloatFormat(-1, -126, 127)));
  EXPECT_FALSE(LaneFormat::supports(FloatFormat(24, -1022, 127)));
  EXPECT_FALSE(LaneFormat::supports(FloatFormat(51, -1021, 1024)));
  EXPECT_FALSE(LaneFormat::supports(FloatFormat(24, -126, 1025)));
  EXPECT_THROW(LaneFormat{formats::ieee_double()}, PreconditionError);
}

// A 64-bit width field leaves the struct without padding. gtest names each
// case by dumping the parameter's bytes, and padding bytes hold whatever the
// stack held, so the names would change from run to run.
struct FormatCase {
  std::int64_t frac_bits;
  double max_rel_err;
};

class FormatSweep : public ::testing::TestWithParam<FormatCase> {};

TEST_P(FormatSweep, ErrorScalesWithMantissa) {
  const auto p = GetParam();
  const FloatFormat f(static_cast<int>(p.frac_bits), -126, 127);
  double worst = 0.0;
  double x = 1.0;
  for (int i = 0; i < 1000; ++i) {
    x = x * 1.0061803398875 + 1e-4;  // irrational-ish walk
    if (x > 1e6) x *= 1e-7;
    const double q = f.quantize(x);
    worst = std::max(worst, std::fabs(q - x) / x);
  }
  EXPECT_LE(worst, p.max_rel_err);
  EXPECT_GT(worst, 0.0);  // narrow formats must actually lose bits
}

INSTANTIATE_TEST_SUITE_P(Widths, FormatSweep,
                         ::testing::Values(FormatCase{12, std::ldexp(1.0, -12)},
                                           FormatCase{16, std::ldexp(1.0, -16)},
                                           FormatCase{20, std::ldexp(1.0, -20)},
                                           FormatCase{24, std::ldexp(1.0, -24)}));

}  // namespace
}  // namespace g6
