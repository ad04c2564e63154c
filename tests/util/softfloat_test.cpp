#include "util/softfloat.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

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
