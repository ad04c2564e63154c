#include "util/fixedpoint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace g6 {
namespace {

TEST(FixedPointCodec, RoundTripWithinResolution) {
  const FixedPointCodec codec(128.0);
  for (double x : {0.0, 1.0, -1.0, 100.0, -127.9, 3.14159, 1e-12}) {
    EXPECT_NEAR(codec.decode(codec.encode(x)), x, codec.resolution());
  }
}

TEST(FixedPointCodec, QuantizeIsIdempotent) {
  const FixedPointCodec codec(16.0);
  const double q = codec.quantize(1.0 / 3.0);
  EXPECT_EQ(codec.quantize(q), q);
}

TEST(FixedPointCodec, ResolutionMatchesRange) {
  const FixedPointCodec narrow(1.0);
  const FixedPointCodec wide(1024.0);
  EXPECT_DOUBLE_EQ(wide.resolution() / narrow.resolution(), 1024.0);
}

TEST(FixedPointCodec, DifferencesAreExact) {
  // The whole point of fixed-point coordinates: x_j - x_i has no rounding
  // beyond the initial grid snap — the integer subtraction itself is exact.
  const FixedPointCodec codec(128.0);
  for (auto [x, y] : {std::pair{100.0, 99.9999999}, {1.0 / 3.0, -2.0 / 7.0},
                      {127.5, 127.4999999999}}) {
    const std::int64_t a = codec.encode(x);
    const std::int64_t b = codec.encode(y);
    EXPECT_EQ(codec.decode(a - b), codec.quantize(x) - codec.quantize(y));
  }
}

TEST(FixedPointCodec, RejectsOutOfRange) {
  const FixedPointCodec codec(1.0);
  EXPECT_NO_THROW(codec.encode(1.9));   // guard bits allow up to 2*range
  EXPECT_THROW(codec.encode(4.0), PreconditionError);
  EXPECT_THROW(FixedPointCodec(-1.0), PreconditionError);
}

/// round_to_int64's domain |x| < 2^62: random magnitudes, ties and
/// near-ties at every scale below 2^52, the 2^52 and 2^53 switch-overs,
/// the top of the domain, and both zeros.
std::vector<double> round_probes() {
  std::vector<double> xs;
  Rng rng(0x11a1);
  for (int i = 0; i < 200000; ++i) {
    const double x = std::ldexp(rng.uniform(0.5, 1.0), static_cast<int>(rng.uniform(-60, 62)));
    xs.push_back(rng.uniform(0.0, 1.0) < 0.5 ? x : -x);
  }
  // Ties (k + 1/2, both parities) and near-ties at every scale below 2^52.
  for (int e = 0; e < 52; ++e) {
    const double k = std::ldexp(1.0, e);
    for (double t : {k - 0.5, k + 0.5, k + 1.5, k - 1.5, std::nextafter(k + 0.5, 0.0),
                     std::nextafter(k + 0.5, 1e300)}) {
      xs.push_back(t);
      xs.push_back(-t);
    }
  }
  // The 2^52 switch-over, 2^53 (spacing 2) and the top of the domain.
  for (double b : {0x1p52, 0x1p53, 0x1p62}) {
    for (int s = -4; s <= 4; ++s) {
      double x = b;
      for (int n = 0; n < std::abs(s); ++n) x = std::nextafter(x, s < 0 ? 0.0 : 1e300);
      if (std::fabs(x) < 0x1p62) {
        xs.push_back(x);
        xs.push_back(-x);
      }
    }
  }
  for (double x : {0.0, -0.0, 0.25, -0.75, 5e-324, -1e-300}) xs.push_back(x);
  return xs;
}

TEST(RoundToInt64, MatchesLlrint) {
  for (double x : round_probes()) {
    ASSERT_EQ(round_to_int64(x), std::llrint(x)) << std::hexfloat << x;
  }
}

// --- the lane forms, at two lanes and, in an x86-64-v3 function, four ----

template <int W>
void run_lane_rounds(const std::vector<double>& xs, std::vector<std::int64_t>& out) {
  out.resize(xs.size());
  for (std::size_t i = 0; i + W <= xs.size(); i += W) {
    const LaneInts<W> r = round_to_int64(Lanes<W>::load(&xs[i]));
    for (int l = 0; l < W; ++l) out[i + static_cast<std::size_t>(l)] = r[l];
  }
}

/// Lane l of `words` takes xs[W * s + l] at step s through
/// LaneAccumulator<W>: loaded, added step by step, stored back.
template <int W>
void run_lane_adds(std::vector<BlockFloatAccumulator>& words, const std::vector<double>& xs) {
  const BlockFloatAccumulator* from[W];
  BlockFloatAccumulator* to[W];
  for (int l = 0; l < W; ++l) from[l] = to[l] = &words[static_cast<std::size_t>(l)];
  LaneAccumulator<W> acc;
  acc.load(from);
  for (std::size_t i = 0; i + W <= xs.size(); i += W) acc.add(Lanes<W>::load(&xs[i]));
  acc.store(to, W);
}

void lane_rounds(int width, const std::vector<double>& xs, std::vector<std::int64_t>& out);
void lane_adds(int width, std::vector<BlockFloatAccumulator>& words,
               const std::vector<double>& xs);

#if defined(__x86_64__)
[[gnu::target("arch=x86-64-v3")]] void lane_rounds_at_4(const std::vector<double>& xs,
                                                        std::vector<std::int64_t>& out) {
  run_lane_rounds<4>(xs, out);
}
[[gnu::target("arch=x86-64-v3")]] void lane_adds_at_4(std::vector<BlockFloatAccumulator>& words,
                                                      const std::vector<double>& xs) {
  run_lane_adds<4>(words, xs);
}
#endif

void lane_rounds(int width, const std::vector<double>& xs, std::vector<std::int64_t>& out) {
  if (width == 2) run_lane_rounds<2>(xs, out);
#if defined(__x86_64__)
  if (width == 4) lane_rounds_at_4(xs, out);
#endif
}
void lane_adds(int width, std::vector<BlockFloatAccumulator>& words,
               const std::vector<double>& xs) {
  if (width == 2) run_lane_adds<2>(words, xs);
#if defined(__x86_64__)
  if (width == 4) lane_adds_at_4(words, xs);
#endif
}

/// Runs each test at the lane width of its parameter (four lanes skip on a
/// CPU without x86-64-v3).
class LaneWidth : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    if (GetParam() > host_lane_width()) {
      GTEST_SKIP() << "four-lane ops need an x86-64 CPU with AVX2, FMA and BMI1/2 "
                      "(x86-64-v3); this one runs two lanes only";
    }
  }
};

TEST_P(LaneWidth, RoundMatchesScalarOnEveryLane) {
  const std::vector<double> xs = round_probes();
  // Every probe on every lane position: the probes shifted by one each pass.
  for (int shift = 0; shift < GetParam(); ++shift) {
    std::vector<double> shifted(xs.begin() + shift, xs.end());
    std::vector<std::int64_t> lanes;
    lane_rounds(GetParam(), shifted, lanes);
    for (std::size_t i = 0; i + static_cast<std::size_t>(GetParam()) <= shifted.size(); ++i) {
      ASSERT_EQ(lanes[i], round_to_int64(shifted[i])) << std::hexfloat << shifted[i];
    }
  }
}

/// Lane l's word on block exponent exps[l] takes streams[l] in order, once
/// through add() and once through the lane add; every word's mantissa and
/// overflow flag must agree. Returns the words' overflow flags.
std::vector<bool> expect_lane_adds_match(int width, const int* exps,
                                         const std::vector<std::vector<double>>& streams) {
  const std::size_t w = static_cast<std::size_t>(width);
  std::vector<BlockFloatAccumulator> one(w);
  std::vector<BlockFloatAccumulator> lanes(w);
  for (std::size_t l = 0; l < w; ++l) {
    one[l].reset(exps[l]);
    lanes[l].reset(exps[l]);
  }
  std::vector<double> xs;
  for (std::size_t i = 0; i < streams[0].size(); ++i) {
    for (std::size_t l = 0; l < w; ++l) {
      one[l].add(streams[l][i]);
      xs.push_back(streams[l][i]);
    }
  }
  lane_adds(width, lanes, xs);
  std::vector<bool> flags;
  for (std::size_t l = 0; l < w; ++l) {
    EXPECT_EQ(lanes[l].mantissa(), one[l].mantissa()) << "lane " << l;
    EXPECT_EQ(lanes[l].overflow(), one[l].overflow()) << "lane " << l;
    flags.push_back(one[l].overflow());
  }
  return flags;
}

TEST_P(LaneWidth, AddMatchesAddsInOrder) {
  // Each lane its own word on its own block exponent and its own addend
  // stream: random addends, ones whose grid value sits just below and
  // above 2^52, rounding ties of both parities and zeros of both signs;
  // then the same with addends just below and at 2^62 on the grid, inf and
  // NaN (refused, flagging the word); and a run that overflows the int64
  // sum (refused) on one lane only.
  const int width = GetParam();
  const std::size_t w = static_cast<std::size_t>(width);
  const int exps[] = {0, -7, 12, 3};
  const double frac = BlockFloatAccumulator::kFracBits;
  std::vector<double> grid = {0.5, 1.5, 2.5, 7.5, 8.5, 0x1p52 - 1.5, 0x1p52 - 0.5,
                              std::nextafter(0x1p52, 0.0), 0x1p52, 0x1p52 + 2.0};
  Rng rng(0x1a4e);
  std::vector<std::vector<double>> streams(w);
  for (std::size_t l = 0; l < w; ++l) {
    const double unit = std::ldexp(1.0, exps[l] - static_cast<int>(frac));
    std::vector<double>& s = streams[l];
    for (int i = 0; i < 400; ++i) {
      s.push_back(std::ldexp(rng.uniform(-1.0, 1.0),
                             exps[l] + static_cast<int>(rng.uniform(-40, 0))));
    }
    for (double g : grid) {
      for (double sign : {1.0, -1.0}) {
        s.insert(s.begin() + static_cast<long>(rng.uniform(0, 400)), sign * g * unit);
      }
    }
    s.insert(s.begin() + 100, 0.0);
    s.insert(s.begin() + 200, -0.0);
  }
  EXPECT_EQ(expect_lane_adds_match(width, exps, streams), std::vector<bool>(w, false));

  // One lane's sum overflows: eight addends of 2^61 on the grid; the
  // fourth carries past 2^63 and it and the rest are refused.
  auto overflowing = streams;
  for (std::size_t i = 0; i < 8; ++i) {
    overflowing[1][250 + i] = std::ldexp(1.0, 61 + exps[1] - static_cast<int>(frac));
  }
  std::vector<bool> only_lane_1(w, false);
  only_lane_1[1] = true;
  EXPECT_EQ(expect_lane_adds_match(width, exps, overflowing), only_lane_1);

  // Out-of-range addends, each refused with the flag raised.
  auto refused = streams;
  for (std::size_t l = 0; l < w; ++l) {
    const double unit = std::ldexp(1.0, exps[l] - static_cast<int>(frac));
    const double at[] = {std::nextafter(0x1p62, 0.0) * unit, 0x1p62 * unit,
                         -std::nextafter(0x1p62, 0.0) * unit,
                         std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()};
    refused[l][50 + 40 * l] = at[l % 5];
  }
  expect_lane_adds_match(width, exps, refused);
}

TEST_P(LaneWidth, StoreOrsIntoTheStickyFlag) {
  // store() ORs the lanes' flags into the words: a flag raised before the
  // load survives a clean run of lane adds.
  const std::size_t w = static_cast<std::size_t>(GetParam());
  std::vector<BlockFloatAccumulator> words(w);
  for (auto& a : words) a.reset(0);
  words[0].add(std::numeric_limits<double>::infinity());
  std::vector<double> xs(4 * w, 0x1p-20);
  lane_adds(GetParam(), words, xs);
  EXPECT_TRUE(words[0].overflow());
  for (std::size_t l = 0; l < w; ++l) {
    EXPECT_EQ(words[l].mantissa(), 4 * (std::int64_t{1} << 36)) << l;
    EXPECT_EQ(words[l].overflow(), l == 0) << l;
  }
}

INSTANTIATE_TEST_SUITE_P(Lanes, LaneWidth, ::testing::Values(2, 4),
                         [](const ::testing::TestParamInfo<int>& i) {
                           return "W" + std::to_string(i.param);
                         });

TEST(BlockFloatAccumulator, AddendAtTheOverflowBoundary) {
  // Block exponent 62 - kFracBits = 6 makes the scale 2^50: the addend
  // 2^12 lands exactly on the 2^62 word limit and overflows; the largest
  // double below it is rounded and accumulated exactly.
  BlockFloatAccumulator at(6);
  at.add(0x1p12);
  EXPECT_TRUE(at.overflow());
  BlockFloatAccumulator below(6);
  const double x = std::nextafter(0x1p12, 0.0);
  below.add(-x);
  EXPECT_FALSE(below.overflow());
  EXPECT_EQ(below.mantissa(), std::llrint(-x * 0x1p50));
  // Just under 2^52 on the grid: a tie rounds to even, as llrint does.
  BlockFloatAccumulator tie(6);
  tie.add(std::ldexp(0x1p52 - 1.5, -50));
  EXPECT_EQ(tie.mantissa(), std::llrint(0x1p52 - 1.5));
}

TEST(BlockFloatAccumulator, AccumulatesSimpleSum) {
  BlockFloatAccumulator acc(4);  // full scale 16
  acc.add(1.0);
  acc.add(2.0);
  acc.add(3.0);
  EXPECT_FALSE(acc.overflow());
  EXPECT_NEAR(acc.value(), 6.0, 1e-12);
}

TEST(BlockFloatAccumulator, OrderInvarianceIsExact) {
  // The paper's key reproducibility property (Sec 3.4): with a fixed block
  // exponent the sum is bit-identical for any summation order.
  Rng rng(42);
  std::vector<double> xs(1000);
  for (auto& x : xs) x = rng.uniform(-1.0, 1.0) * std::exp(rng.uniform(-20.0, 2.0));

  BlockFloatAccumulator fwd(4), rev(4), shuf(4);
  for (double x : xs) fwd.add(x);
  for (auto it = xs.rbegin(); it != xs.rend(); ++it) rev.add(*it);
  std::vector<double> copy = xs;
  for (std::size_t i = 0; i < copy.size(); ++i) {
    std::swap(copy[i], copy[rng.uniform_index(copy.size())]);
  }
  for (double x : copy) shuf.add(x);

  EXPECT_EQ(fwd.mantissa(), rev.mantissa());
  EXPECT_EQ(fwd.mantissa(), shuf.mantissa());

  // Plain double summation generally differs between orders.
  const double dfwd = std::accumulate(xs.begin(), xs.end(), 0.0);
  const double drev = std::accumulate(xs.rbegin(), xs.rend(), 0.0);
  // (not asserted unequal — just observed; the BFP identity above is the contract)
  (void)dfwd;
  (void)drev;
}

TEST(BlockFloatAccumulator, PartitionedMergeEqualsDirectSum) {
  // Split across "chips" and merge: must be bit-identical to one chip.
  Rng rng(7);
  std::vector<double> xs(512);
  for (auto& x : xs) x = rng.gaussian();

  BlockFloatAccumulator whole(6);
  for (double x : xs) whole.add(x);

  constexpr int kChips = 32;
  std::vector<BlockFloatAccumulator> parts(kChips, BlockFloatAccumulator(6));
  for (std::size_t i = 0; i < xs.size(); ++i) parts[i % kChips].add(xs[i]);
  BlockFloatAccumulator merged(6);
  for (const auto& p : parts) merged.merge(p);

  EXPECT_EQ(whole.mantissa(), merged.mantissa());
}

TEST(BlockFloatAccumulator, AddendOverflowSetsFlag) {
  BlockFloatAccumulator acc(0);  // full scale 1, headroom 2^6
  acc.add(1e6);                  // far above headroom
  EXPECT_TRUE(acc.overflow());
}

TEST(BlockFloatAccumulator, SumOverflowSetsFlag) {
  BlockFloatAccumulator acc(0);
  for (int i = 0; i < 200; ++i) acc.add(30.0);  // creeps past 2^6 headroom
  EXPECT_TRUE(acc.overflow());
}

TEST(BlockFloatAccumulator, MergeRequiresSameExponent) {
  BlockFloatAccumulator a(2), b(3);
  EXPECT_THROW(a.merge(b), PreconditionError);
}

TEST(BlockFloatAccumulator, MergePropagatesOverflow) {
  BlockFloatAccumulator a(0), b(0);
  b.add(1e9);
  ASSERT_TRUE(b.overflow());
  a.merge(b);
  EXPECT_TRUE(a.overflow());
}

TEST(BlockFloatAccumulator, MergeOverflowFlagDependsOnGrouping) {
  // The mantissa sums are associative, the overflow flag is not: it comes
  // from the intermediate int64 sum. This is why the engine's reduction
  // tree (chips -> module -> board -> network board) has one fixed order.
  const std::int64_t big = (std::int64_t{1} << 62) + (std::int64_t{1} << 61);
  const auto word = [](std::int64_t mant) {
    BlockFloatAccumulator w(0);
    w.fault_set_mantissa(mant);
    return w;
  };
  const BlockFloatAccumulator a = word(big), b = word(big), c = word(-big);

  BlockFloatAccumulator left = a;  // (a + b) + c
  left.merge(b);
  left.merge(c);
  EXPECT_TRUE(left.overflow());

  BlockFloatAccumulator bc = b;  // a + (b + c)
  bc.merge(c);
  BlockFloatAccumulator right = a;
  right.merge(bc);
  EXPECT_FALSE(right.overflow());
  EXPECT_EQ(right.mantissa(), big);
}

TEST(BlockFloatAccumulator, ResolutionDependsOnBlockExponent) {
  // Larger exponent -> coarser grid: tiny addends vanish. With block
  // exponent E the grid spacing is 2^(E - kFracBits).
  const double tiny = std::ldexp(1.0, -50);
  BlockFloatAccumulator fine(0), coarse(20);
  fine.add(tiny);
  coarse.add(tiny);
  EXPECT_GT(fine.value(), 0.0);
  EXPECT_EQ(coarse.value(), 0.0);
}

TEST(BlockFloatAccumulator, ScaleIsExactPowerOfTwoAcrossTheWindow) {
  // reset() builds 2^k from its exponent bits inside the window where the
  // cached scale is a normal double, and leaves add() on ldexp outside it.
  BlockFloatAccumulator acc;
  for (int k = -1021; k <= 1023; ++k) {
    acc.reset(BlockFloatAccumulator::kFracBits - k);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(acc.scale()),
              std::bit_cast<std::uint64_t>(std::ldexp(1.0, k)))
        << "k=" << k;
  }
  for (int k : {-1100, -1022, 1024, 1100}) {
    acc.reset(BlockFloatAccumulator::kFracBits - k);
    EXPECT_EQ(acc.scale(), 0.0) << "k=" << k;
  }
}

TEST(ChooseBlockExponent, GivesHeadroomMargin) {
  const int e = choose_block_exponent(1.0, 2);
  BlockFloatAccumulator acc(e);
  acc.add(1.0);
  acc.add(1.0);
  acc.add(1.0);
  EXPECT_FALSE(acc.overflow());
  EXPECT_NEAR(acc.value(), 3.0, 1e-12);
}

TEST(ChooseBlockExponent, HandlesDegenerateInputs) {
  EXPECT_EQ(choose_block_exponent(0.0), 0);
  EXPECT_EQ(choose_block_exponent(-1.0), 0);
}

}  // namespace
}  // namespace g6
