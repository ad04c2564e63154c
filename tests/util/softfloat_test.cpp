#include "util/softfloat.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
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

/// The binary lane ops under test, in LaneResults order.
constexpr const char* kLaneOps[] = {"quantize", "add",  "sub",  "mul",
                                    "mul3",     "div", "rsqrt"};
constexpr int kNumLaneOps = 7;

/// Lane-op results over the probes, computed at one width, compared at
/// the baseline ISA. Group i puts a[l] = probes[i + l] and
/// b[l] = probes[i + (l + 1) % W] on lane l.
struct LaneResults {
  int width = 0;
  std::vector<double> a, b;                       // per (group, lane)
  std::vector<double> value[kNumLaneOps];         // per (group, lane)
  std::vector<std::uint8_t> flagged[kNumLaneOps];
};

template <int W>
[[gnu::always_inline]] inline void run_lane_ops(const FloatFormat& f,
                                                const std::vector<double>& probes,
                                                LaneResults& r) {
  r.width = W;
  LaneFormat<W> lanes(f);
  const auto keep = [&](int op, const Lanes<W>& v) {
    const LaneInts<W> m = lanes.take_flagged();
    for (int l = 0; l < W; ++l) {
      r.value[op].push_back(v[l]);
      r.flagged[op].push_back(m[l] != 0);
    }
  };
  for (std::size_t i = 0; i + W <= probes.size(); ++i) {
    Lanes<W> va;
    Lanes<W> vb;
    for (int l = 0; l < W; ++l) {
      va.v[l] = probes[i + static_cast<std::size_t>(l)];
      vb.v[l] = probes[i + static_cast<std::size_t>((l + 1) % W)];
      r.a.push_back(va.v[l]);
      r.b.push_back(vb.v[l]);
    }
    keep(0, lanes.quantize(va));
    keep(1, lanes.add(va, vb));
    keep(2, lanes.sub(va, vb));
    keep(3, lanes.mul(va, vb));
    keep(4, lanes.mul(va, 3.0));
    keep(5, lanes.div(va, vb));
    keep(6, lanes.rsqrt(va));
  }
}

/// What the flag checks read: lane 0 holds the probe, every other lane an
/// in-range 1.0 that must stay clean.
struct FlagResults {
  std::vector<std::uint8_t> probe_flagged;
  bool partners_clean = true;
  double rsqrt_zero = 0.0;  ///< rsqrt of lane 0 = 0, lane 1 = 4
  double rsqrt_four = 0.0;
  bool rsqrt_zero_flagged = true;
  bool bad_rsqrt_flagged = false;  ///< lanes -1 and NaN both flag
};

template <int W>
[[gnu::always_inline]] inline void run_flag_checks(const FloatFormat& f,
                                                   const std::vector<double>& xs,
                                                   FlagResults& r) {
  LaneFormat<W> lanes(f);
  for (double x : xs) {
    Lanes<W> v = Lanes<W>::splat(1.0);
    v.v[0] = x;
    lanes.quantize(v);
    const LaneInts<W> m = lanes.take_flagged();
    r.probe_flagged.push_back(m[0] != 0);
    for (int l = 1; l < W; ++l) r.partners_clean = r.partners_clean && m[l] == 0;
  }
  Lanes<W> z = Lanes<W>::splat(4.0);
  z.v[0] = 0.0;
  const Lanes<W> q = lanes.rsqrt(z);
  const LaneInts<W> zm = lanes.take_flagged();
  r.rsqrt_zero_flagged = zm.any();
  r.rsqrt_zero = q[0];
  r.rsqrt_four = q[1];
  Lanes<W> bad = Lanes<W>::splat(-1.0);
  bad.v[1] = std::numeric_limits<double>::quiet_NaN();
  lanes.rsqrt(bad);
  const LaneInts<W> bm = lanes.take_flagged();
  r.bad_rsqrt_flagged = true;
  for (int l = 0; l < W; ++l) r.bad_rsqrt_flagged = r.bad_rsqrt_flagged && bm[l] != 0;
}

void lane_ops_at_2(const FloatFormat& f, const std::vector<double>& probes,
                   LaneResults& r) {
  run_lane_ops<2>(f, probes, r);
}
void flag_checks_at_2(const FloatFormat& f, const std::vector<double>& xs,
                      FlagResults& r) {
  run_flag_checks<2>(f, xs, r);
}
#if defined(__x86_64__)
// Four lanes as the force kernel runs them: in an x86-64-v3 function,
// called only where host_lane_width() is 4.
[[gnu::target("arch=x86-64-v3")]] void lane_ops_at_4(const FloatFormat& f,
                                                     const std::vector<double>& probes,
                                                     LaneResults& r) {
  run_lane_ops<4>(f, probes, r);
}
[[gnu::target("arch=x86-64-v3")]] void flag_checks_at_4(const FloatFormat& f,
                                                        const std::vector<double>& xs,
                                                        FlagResults& r) {
  run_flag_checks<4>(f, xs, r);
}
#endif

/// Skips the calling test when this host cannot run four-lane code.
#define SKIP_WITHOUT_WIDE_LANES()                                               \
  if (host_lane_width() < 4)                                                    \
  GTEST_SKIP() << "four-lane ops need an x86-64 CPU with AVX2, FMA and BMI1/2 " \
                  "(x86-64-v3); this one runs two lanes only"

void expect_unflagged_lanes_match(int width) {
  const FloatFormat fmts[] = {formats::pipeline(), formats::predictor(),
                              FloatFormat(4, -8, 7), FloatFormat(12, -20, 63),
                              FloatFormat(51, -1020, 1024)};
  const auto probes = lane_probes();
  for (const auto& f : fmts) {
    ASSERT_TRUE(LaneFormat<2>::supports(f));
    LaneResults r;
    if (width == 2) lane_ops_at_2(f, probes, r);
#if defined(__x86_64__)
    if (width == 4) lane_ops_at_4(f, probes, r);
#endif
    ASSERT_EQ(r.width, width);
    for (std::size_t i = 0; i < r.a.size(); ++i) {
      const double a = r.a[i];
      const double b = r.b[i];
      const auto check = [&](int op, double scalar, double b_shown) {
        expect_lane(r.value[op][i], r.flagged[op][i] != 0, scalar, kLaneOps[op], a,
                    b_shown);
      };
      check(0, f.quantize(a), b);
      check(1, f.add(a, b), b);
      check(2, f.sub(a, b), b);
      check(3, f.mul(a, b), b);
      check(4, f.mul(a, 3.0), 3.0);
      check(5, f.div(a, b), b);
      // The scalar rsqrt throws on a negative or NaN operand; the lane op
      // must flag those lanes.
      if (!(a >= 0.0)) {
        EXPECT_NE(r.flagged[6][i], 0) << "rsqrt(" << std::hexfloat << a << ')';
      } else {
        check(6, f.rsqrt(a), 0.0);
      }
    }
  }
}

void expect_exact_out_of_range_flags(int width) {
  const FloatFormat f(8, -10, 10);
  // Zero and in-range normals take the lane path; flush, saturation,
  // subnormal doubles, inf and NaN do not.
  const std::vector<std::pair<double, bool>> cases = {
      {0.0, false},
      {-0.0, false},
      {f.min_normal(), false},
      {-f.max_value(), false},
      {1.0 / 3.0, false},
      {std::ldexp(1.0, -20), true},
      {std::ldexp(1.0, 40), true},
      {std::nextafter(f.max_value(), 1e300), false},  // rounds to max
      {f.max_value() + 1.0, true},  // the tie above max rounds past it
      {5e-324, true},
      {std::numeric_limits<double>::infinity(), true},
      {std::bit_cast<double>(0x7fffffffffffffffULL), true},
  };
  std::vector<double> xs;
  for (const auto& c : cases) xs.push_back(c.first);
  FlagResults r;
  if (width == 2) flag_checks_at_2(f, xs, r);
#if defined(__x86_64__)
  if (width == 4) flag_checks_at_4(f, xs, r);
#endif
  ASSERT_EQ(r.probe_flagged.size(), cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(r.probe_flagged[i] != 0, cases[i].second)
        << std::hexfloat << cases[i].first;
  }
  EXPECT_TRUE(r.partners_clean);  // the in-range partner lanes stay clean
  // rsqrt: a zero operand clamps to max_value() without a flag; negative
  // and NaN operands flag.
  EXPECT_FALSE(r.rsqrt_zero_flagged);
  EXPECT_EQ(r.rsqrt_zero, f.max_value());
  EXPECT_EQ(r.rsqrt_four, 0.5);
  EXPECT_TRUE(r.bad_rsqrt_flagged);
}

TEST(LaneFormat, UnflaggedLanesMatchScalarOps) { expect_unflagged_lanes_match(2); }

TEST(LaneFormat, FourLanesMatchScalarOps) {
  SKIP_WITHOUT_WIDE_LANES();
  expect_unflagged_lanes_match(4);
}

TEST(LaneFormat, FlagsExactlyTheOutOfRangeResults) {
  expect_exact_out_of_range_flags(2);
}

TEST(LaneFormat, FourLanesFlagExactlyTheOutOfRangeResults) {
  SKIP_WITHOUT_WIDE_LANES();
  expect_exact_out_of_range_flags(4);
}

TEST(LaneFormat, SupportsOnlyNormalRangeFormatsBelowDouble) {
  EXPECT_TRUE(LaneFormat<2>::supports(formats::pipeline()));
  EXPECT_FALSE(LaneFormat<2>::supports(formats::ieee_double()));
  EXPECT_FALSE(LaneFormat<2>::supports(FloatFormat(-1, -126, 127)));
  EXPECT_FALSE(LaneFormat<2>::supports(FloatFormat(24, -1022, 127)));
  EXPECT_FALSE(LaneFormat<2>::supports(FloatFormat(51, -1021, 1024)));
  EXPECT_FALSE(LaneFormat<2>::supports(FloatFormat(24, -126, 1025)));
  EXPECT_THROW(LaneFormat<2>{formats::ieee_double()}, PreconditionError);
  EXPECT_THROW(LaneFormat<4>{formats::ieee_double()}, PreconditionError);
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
