// Property and failure-injection tests for the GRAPE host engine:
// exponent-retry machinery, update propagation, determinism, and format
// sweeps.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "util/errors.hpp"
#include "grape/engine.hpp"
#include "hermite/direct_engine.hpp"
#include "nbody/models.hpp"
#include "util/rng.hpp"

namespace g6 {
namespace {

std::vector<JParticle> plummer_j(std::size_t n, unsigned seed) {
  Rng rng(seed);
  const ParticleSet s = make_plummer(n, rng);
  std::vector<JParticle> js(n);
  for (std::size_t i = 0; i < n; ++i) {
    js[i].mass = s[i].mass;
    js[i].pos = s[i].pos;
    js[i].vel = s[i].vel;
  }
  return js;
}

std::vector<PredictedState> as_block(std::span<const JParticle> js) {
  std::vector<PredictedState> block(js.size());
  for (std::size_t i = 0; i < js.size(); ++i) {
    block[i] = {js[i].pos, js[i].vel, js[i].mass, static_cast<std::uint32_t>(i)};
  }
  return block;
}

MachineConfig one_board() {
  MachineConfig mc = MachineConfig::single_host();
  mc.boards_per_host = 1;
  return mc;
}

TEST(GrapeEngineProps, ForcedOverflowRetriesAndRecovers) {
  // Inject absurdly small block exponents: the hardware must raise the
  // overflow flag and the engine must retry until the result fits, then
  // deliver the same forces as a clean engine.
  const auto js = plummer_j(64, 70);
  const auto block = as_block(js);

  GrapeForceEngine clean(one_board(), NumberFormats{}, 0.01);
  GrapeForceEngine hurt(one_board(), NumberFormats{}, 0.01);
  clean.load_particles(js);
  hurt.load_particles(js);
  for (auto& e : hurt.exponents()) e = {-40, -40, -40};

  std::vector<Force> fc(js.size()), fh(js.size());
  clean.compute_forces(0.0, block, fc);
  hurt.compute_forces(0.0, block, fh);

  EXPECT_GT(hurt.stats().retries, 0u);
  for (std::size_t i = 0; i < js.size(); ++i) {
    // Same final exponents -> bit-identical results after retries.
    EXPECT_EQ(fh[i].acc, fc[i].acc) << i;
  }
}

TEST(GrapeEngineProps, UnconvergibleExponentsThrow) {
  // A run that keeps overflowing beyond the retry budget must fail loudly
  // rather than return garbage — with a *typed, recoverable* error the
  // integrator can catch (fault::RetryExhausted), not an abort. Force
  // this with a pathological softening of 0 and two coincident particles
  // (infinite force).
  std::vector<JParticle> js(2);
  js[0].mass = js[1].mass = 0.5;
  js[0].pos = {0.0, 0.0, 0.0};
  js[1].pos = {0.0, 0.0, 0.0};  // coincident, eps = 0 -> r^-2 = inf
  // Exact formats: the infinity is not clamped, so no exponent can ever
  // absorb it and the retry budget must trip.
  GrapeForceEngine hw(one_board(), NumberFormats::exact(), 0.0);
  hw.load_particles(js);
  auto block = as_block(js);
  std::vector<Force> f(2);
  EXPECT_THROW(hw.compute_forces(0.0, block, f), fault::RetryExhausted);
}

TEST(GrapeEngineProps, UpdateParticlePropagatesToForces) {
  auto js = plummer_j(32, 71);
  GrapeForceEngine hw(one_board(), NumberFormats::exact(), 0.01);
  hw.load_particles(js);

  PredictedState probe;
  probe.index = 1000;  // not a stored particle
  probe.pos = {0.0, 0.0, 0.0};
  std::vector<PredictedState> block{probe};
  std::vector<Force> before(1), after(1);
  hw.compute_forces(0.0, block, before);

  // Move particle 0 far away: the force must change accordingly.
  js[0].pos = {50.0, 0.0, 0.0};
  hw.update_particle(0, js[0]);
  hw.compute_forces(0.0, block, after);
  EXPECT_NE(before[0].acc, after[0].acc);
}

TEST(GrapeEngineProps, RepeatedCallsAreDeterministic) {
  const auto js = plummer_j(48, 72);
  const auto block = as_block(js);
  GrapeForceEngine hw(one_board(), NumberFormats{}, 0.01);
  hw.load_particles(js);
  std::vector<Force> f1(js.size()), f2(js.size());
  hw.compute_forces(0.0, block, f1);
  hw.compute_forces(0.0, block, f2);
  for (std::size_t i = 0; i < js.size(); ++i) {
    EXPECT_EQ(f1[i].acc, f2[i].acc);
    EXPECT_EQ(f1[i].jerk, f2[i].jerk);
    EXPECT_EQ(f1[i].pot, f2[i].pot);
  }
}

// A 64-bit width field leaves the struct without padding, so the gtest case
// names (a dump of the parameter's bytes) are the same on every run.
struct FormatCase {
  std::int64_t bits;
  double tol;
};

class PipelineWidthSweep : public ::testing::TestWithParam<FormatCase> {};

TEST_P(PipelineWidthSweep, ForceErrorScalesWithWidth) {
  const auto [bits, tol] = GetParam();
  const auto js = plummer_j(64, 73);
  const auto block = as_block(js);

  DirectForceEngine ref(0.01);
  ref.load_particles(js);
  std::vector<Force> fr(js.size());
  ref.compute_forces(0.0, block, fr);

  NumberFormats fmt;
  fmt.pipeline = FloatFormat(static_cast<int>(bits), -126, 127);
  fmt.velocity = fmt.pipeline;
  GrapeForceEngine hw(one_board(), fmt, 0.01);
  hw.load_particles(js);
  std::vector<Force> fh(js.size());
  hw.compute_forces(0.0, block, fh);

  double worst = 0.0;
  for (std::size_t i = 0; i < js.size(); ++i) {
    worst = std::max(worst, norm(fh[i].acc - fr[i].acc) / norm(fr[i].acc));
  }
  EXPECT_LT(worst, tol);
  EXPECT_GT(worst, tol / 1e4);  // narrow formats must actually be lossy
}

INSTANTIATE_TEST_SUITE_P(Widths, PipelineWidthSweep,
                         ::testing::Values(FormatCase{12, 3e-3},
                                           FormatCase{16, 2e-4},
                                           FormatCase{20, 1.5e-5},
                                           FormatCase{24, 1e-6}));

TEST(GrapeEngineProps, InteractionCountMatchesTopology) {
  const auto js = plummer_j(100, 74);
  GrapeForceEngine hw(MachineConfig::single_host(), NumberFormats::exact(), 0.01);
  hw.load_particles(js);
  const auto block = as_block(std::span(js).subspan(0, 10));
  std::vector<Force> f(10);
  hw.compute_forces(0.0, block, f);
  // One pass, 10 i-particles against all 100 stored j (self cut happens in
  // the pipeline, but the slot is still traversed).
  EXPECT_EQ(hw.stats().interactions, 100ull * 10ull);
}

}  // namespace
}  // namespace g6
