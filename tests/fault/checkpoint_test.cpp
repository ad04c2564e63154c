#include "fault/checkpoint.hpp"

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <thread>

#include "util/errors.hpp"
#include "grape/engine.hpp"
#include "hermite/integrator.hpp"
#include "nbody/models.hpp"
#include "util/rng.hpp"

namespace g6 {
namespace {

MachineConfig tiny_machine() {
  MachineConfig mc;
  mc.boards_per_host = 1;
  mc.modules_per_board = 2;
  mc.chips_per_module = 2;
  return mc;
}

ParticleSet test_system(std::size_t n, unsigned seed) {
  Rng rng(seed);
  return make_plummer(n, rng);
}

fault::RunCheckpoint make_checkpoint(HermiteIntegrator& integ,
                                     GrapeForceEngine& hw) {
  fault::RunCheckpoint cp;
  cp.run_tag = "model=plummer n=32 seed=5";
  cp.state = integ.save_state();
  cp.exponents = hw.exponents();
  cp.e0 = -0.25;
  cp.next_snap = 0.5;
  cp.snap_id = 3;
  return cp;
}

void expect_states_equal(const HermiteState& a, const HermiteState& b) {
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.total_steps, b.total_steps);
  EXPECT_EQ(a.total_blocksteps, b.total_blocksteps);
  ASSERT_EQ(a.particles.size(), b.particles.size());
  for (std::size_t i = 0; i < a.particles.size(); ++i) {
    EXPECT_EQ(a.particles[i].mass, b.particles[i].mass) << i;
    EXPECT_EQ(a.particles[i].t0, b.particles[i].t0) << i;
    EXPECT_EQ(a.particles[i].pos, b.particles[i].pos) << i;
    EXPECT_EQ(a.particles[i].vel, b.particles[i].vel) << i;
    EXPECT_EQ(a.particles[i].acc, b.particles[i].acc) << i;
    EXPECT_EQ(a.particles[i].jerk, b.particles[i].jerk) << i;
    EXPECT_EQ(a.particles[i].snap, b.particles[i].snap) << i;
    EXPECT_EQ(a.dt[i], b.dt[i]) << i;
    EXPECT_EQ(a.last_force[i].acc, b.last_force[i].acc) << i;
    EXPECT_EQ(a.last_force[i].jerk, b.last_force[i].jerk) << i;
    EXPECT_EQ(a.last_force[i].pot, b.last_force[i].pot) << i;
  }
}

TEST(Checkpoint, TextRoundTripIsBitExact) {
  // 17 significant digits round-trip IEEE binary64 exactly; the schema
  // must preserve every field of the state bit for bit.
  const double eps = 1.0 / 64.0;
  const ParticleSet set = test_system(32, 5);
  GrapeForceEngine hw(tiny_machine(), NumberFormats{}, eps);
  HermiteIntegrator integ(set, hw);
  integ.evolve(0.125);

  const fault::RunCheckpoint cp = make_checkpoint(integ, hw);
  std::stringstream ss;
  fault::write_checkpoint(ss, cp);
  const fault::RunCheckpoint rt = fault::read_checkpoint(ss);

  EXPECT_EQ(rt.run_tag, cp.run_tag);
  EXPECT_EQ(rt.e0, cp.e0);
  EXPECT_EQ(rt.next_snap, cp.next_snap);
  EXPECT_EQ(rt.snap_id, cp.snap_id);
  expect_states_equal(rt.state, cp.state);
  ASSERT_EQ(rt.exponents.size(), cp.exponents.size());
  for (std::size_t i = 0; i < cp.exponents.size(); ++i) {
    EXPECT_EQ(rt.exponents[i].acc, cp.exponents[i].acc) << i;
    EXPECT_EQ(rt.exponents[i].jerk, cp.exponents[i].jerk) << i;
    EXPECT_EQ(rt.exponents[i].pot, cp.exponents[i].pot) << i;
  }
}

TEST(Checkpoint, ResumeIsBitIdenticalToUninterruptedRun) {
  // The headline guarantee: stop at t/2, serialize through the text
  // format, restore into a *fresh* engine, continue — and land on exactly
  // the trajectory of the run that never stopped.
  const double eps = 1.0 / 64.0;
  const ParticleSet set = test_system(32, 9);

  GrapeForceEngine hw_full(tiny_machine(), NumberFormats{}, eps);
  HermiteIntegrator full(set, hw_full);
  full.evolve(0.25);

  GrapeForceEngine hw_half(tiny_machine(), NumberFormats{}, eps);
  HermiteIntegrator half(set, hw_half);
  half.evolve(0.125);
  fault::RunCheckpoint cp = make_checkpoint(half, hw_half);
  std::stringstream ss;
  fault::write_checkpoint(ss, cp);
  const fault::RunCheckpoint rt = fault::read_checkpoint(ss);

  GrapeForceEngine hw_res(tiny_machine(), NumberFormats{}, eps);
  HermiteIntegrator resumed(rt.state, hw_res);
  // Must happen AFTER construction: load_particles resets the exponent
  // bank, and the BFP exponents shape rounding on the next pass.
  hw_res.exponents() = rt.exponents;
  resumed.evolve(0.25);

  EXPECT_EQ(full.time(), resumed.time());
  EXPECT_EQ(full.total_steps(), resumed.total_steps());
  for (std::size_t i = 0; i < set.size(); ++i) {
    EXPECT_EQ(full.particle(i).pos, resumed.particle(i).pos) << i;
    EXPECT_EQ(full.particle(i).vel, resumed.particle(i).vel) << i;
    EXPECT_EQ(full.particle(i).acc, resumed.particle(i).acc) << i;
    EXPECT_EQ(full.timestep(i), resumed.timestep(i)) << i;
  }
}

TEST(Checkpoint, AtomicSaveAndLoad) {
  const double eps = 1.0 / 64.0;
  const ParticleSet set = test_system(16, 2);
  GrapeForceEngine hw(tiny_machine(), NumberFormats{}, eps);
  HermiteIntegrator integ(set, hw);
  integ.evolve(0.0625);
  const fault::RunCheckpoint cp = make_checkpoint(integ, hw);

  const std::string path =
      (std::filesystem::temp_directory_path() / "g6_checkpoint_test.ckpt").string();
  fault::save_checkpoint(path, cp);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));  // renamed, not left over
  const fault::RunCheckpoint rt = fault::load_checkpoint(path);
  EXPECT_EQ(rt.run_tag, cp.run_tag);
  expect_states_equal(rt.state, cp.state);
  std::remove(path.c_str());
}

TEST(Checkpoint, CorruptInputThrowsFaultError) {
  const double eps = 1.0 / 64.0;
  const ParticleSet set = test_system(16, 4);
  GrapeForceEngine hw(tiny_machine(), NumberFormats{}, eps);
  HermiteIntegrator integ(set, hw);
  integ.evolve(0.0625);
  std::stringstream ss;
  fault::write_checkpoint(ss, make_checkpoint(integ, hw));
  const std::string text = ss.str();

  {  // wrong schema line
    std::stringstream bad("not-a-checkpoint\n");
    EXPECT_THROW(fault::read_checkpoint(bad), fault::FaultError);
  }
  {  // truncated mid-file: half the bytes
    std::stringstream bad(text.substr(0, text.size() / 2));
    EXPECT_THROW(fault::read_checkpoint(bad), fault::FaultError);
  }
  {  // empty
    std::stringstream bad("");
    EXPECT_THROW(fault::read_checkpoint(bad), fault::FaultError);
  }
  EXPECT_THROW(fault::load_checkpoint("/nonexistent/run.ckpt"), fault::FaultError);
}

std::string checkpoint_text(unsigned seed) {
  const double eps = 1.0 / 64.0;
  const ParticleSet set = test_system(16, seed);
  GrapeForceEngine hw(tiny_machine(), NumberFormats{}, eps);
  HermiteIntegrator integ(set, hw);
  integ.evolve(0.0625);
  std::stringstream ss;
  fault::write_checkpoint(ss, make_checkpoint(integ, hw));
  return ss.str();
}

void spit(const std::string& path, const std::string& text) {
  std::ofstream os(path, std::ios::trunc);
  os << text;
}

TEST(Checkpoint, ChecksumTrailerIsWrittenAndVerified) {
  const std::string text = checkpoint_text(7);
  // trailer: "end\nsum <16 hex digits>\n" over all preceding bytes.
  const std::size_t marker = text.rfind("end\nsum ");
  ASSERT_NE(marker, std::string::npos);
  EXPECT_EQ(text.size(), marker + 4 + 4 + 16 + 1);
  std::stringstream ok(text);
  EXPECT_NO_THROW(fault::read_checkpoint(ok));
}

TEST(Checkpoint, SingleBitFlipIsDetected) {
  std::string text = checkpoint_text(7);
  // Flip one bit in the middle of the body — a digit of some particle
  // coordinate. The FNV-1a trailer must catch it.
  text[text.size() / 2] ^= 0x01;
  std::stringstream bad(text);
  try {
    fault::read_checkpoint(bad);
    FAIL() << "bit flip went undetected";
  } catch (const fault::FaultError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
}

TEST(Checkpoint, MissingTrailerIsRejected) {
  const std::string text = checkpoint_text(7);
  const std::size_t marker = text.rfind("end\nsum ");
  ASSERT_NE(marker, std::string::npos);
  // A pre-trailer (legacy) file ends at "end\n" — refuse rather than
  // trust unverifiable bytes.
  std::stringstream bad(text.substr(0, marker + 4));
  EXPECT_THROW(fault::read_checkpoint(bad), fault::FaultError);
}

TEST(Checkpoint, TruncatedTrailerIsRejected) {
  const std::string text = checkpoint_text(7);
  std::stringstream bad(text.substr(0, text.size() - 5));
  EXPECT_THROW(fault::read_checkpoint(bad), fault::FaultError);
}

TEST(Checkpoint, ExtremeValuesRoundTripBitExact) {
  // The ends of the double and integer ranges, subnormals and -0 come
  // back bit for bit, not just equal.
  const ParticleSet set = test_system(16, 3);
  GrapeForceEngine hw(tiny_machine(), NumberFormats{}, 1.0 / 64.0);
  HermiteIntegrator integ(set, hw);
  fault::RunCheckpoint cp = make_checkpoint(integ, hw);
  using lim = std::numeric_limits<double>;
  const double extremes[] = {-0.0,          lim::denorm_min(),
                             -lim::min(),   0x1.fffffffffffffp-1022,
                             lim::max(),    lim::lowest(),
                             0.1,           -1e-300};
  for (std::size_t k = 0; k < std::size(extremes); ++k) {
    cp.state.particles[k].snap.y = extremes[k];
    cp.state.dt[k] = extremes[k];
    cp.state.last_force[k].pot = extremes[k];
  }
  cp.e0 = -0.0;
  cp.state.total_steps = std::numeric_limits<unsigned long long>::max();
  cp.snap_id = -7;
  cp.exponents[0].acc = -60;

  std::stringstream ss;
  fault::write_checkpoint(ss, cp);
  const fault::RunCheckpoint rt = fault::read_checkpoint(ss);
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (std::size_t k = 0; k < std::size(extremes); ++k) {
    EXPECT_EQ(bits(rt.state.particles[k].snap.y), bits(extremes[k])) << k;
    EXPECT_EQ(bits(rt.state.dt[k]), bits(extremes[k])) << k;
    EXPECT_EQ(bits(rt.state.last_force[k].pot), bits(extremes[k])) << k;
  }
  EXPECT_EQ(bits(rt.e0), bits(-0.0));
  EXPECT_EQ(rt.state.total_steps, cp.state.total_steps);
  EXPECT_EQ(rt.snap_id, -7);
  EXPECT_EQ(rt.exponents[0].acc, -60);
  expect_states_equal(rt.state, cp.state);
}

TEST(Checkpoint, NonFiniteFieldIsRejected) {
  // A state holding inf or nan does not load, even under a valid checksum.
  const ParticleSet set = test_system(16, 3);
  GrapeForceEngine hw(tiny_machine(), NumberFormats{}, 1.0 / 64.0);
  HermiteIntegrator integ(set, hw);
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    fault::RunCheckpoint cp = make_checkpoint(integ, hw);
    cp.state.dt[1] = bad;
    std::stringstream ss;
    fault::write_checkpoint(ss, cp);
    try {
      fault::read_checkpoint(ss);
      FAIL() << "loaded a checkpoint holding " << bad;
    } catch (const fault::FaultError& e) {
      EXPECT_NE(std::string(e.what()).find("particle record 1"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Checkpoint, LoadsFromAPipe) {
  // load_checkpoint reads a seekable file in one piece and streams
  // anything else (a FIFO, process substitution) to the same result.
  const std::string text = checkpoint_text(7);
  const auto dir = std::filesystem::temp_directory_path() / "g6_ckpt_fifo";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "run.ckpt").string();
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  std::thread writer([&] {
    std::ofstream os(path, std::ios::binary);  // blocks until the reader opens
    os << text;
  });
  fault::RunCheckpoint rt;
  EXPECT_NO_THROW(rt = fault::load_checkpoint(path));
  writer.join();
  std::stringstream ss(text);
  expect_states_equal(rt.state, fault::read_checkpoint(ss).state);
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, RotatingSaveKeepsPreviousGeneration) {
  const auto dir = std::filesystem::temp_directory_path() / "g6_ckpt_rotate";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "job.ckpt").string();

  const double eps = 1.0 / 64.0;
  const ParticleSet set = test_system(16, 11);
  GrapeForceEngine hw(tiny_machine(), NumberFormats{}, eps);
  HermiteIntegrator integ(set, hw);
  integ.evolve(0.0625);
  fault::RunCheckpoint cp = make_checkpoint(integ, hw);
  cp.snap_id = 1;
  fault::save_checkpoint_rotating(path, cp);
  EXPECT_FALSE(std::filesystem::exists(path + ".prev"));
  cp.snap_id = 2;
  fault::save_checkpoint_rotating(path, cp);
  ASSERT_TRUE(std::filesystem::exists(path + ".prev"));

  EXPECT_EQ(fault::load_checkpoint(path).snap_id, 2u);
  EXPECT_EQ(fault::load_checkpoint(path + ".prev").snap_id, 1u);
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, ResilientLoadFallsBackToPreviousGeneration) {
  const auto dir = std::filesystem::temp_directory_path() / "g6_ckpt_resilient";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "job.ckpt").string();

  const double eps = 1.0 / 64.0;
  const ParticleSet set = test_system(16, 13);
  GrapeForceEngine hw(tiny_machine(), NumberFormats{}, eps);
  HermiteIntegrator integ(set, hw);
  integ.evolve(0.0625);
  fault::RunCheckpoint cp = make_checkpoint(integ, hw);
  cp.snap_id = 1;
  fault::save_checkpoint_rotating(path, cp);
  cp.snap_id = 2;
  fault::save_checkpoint_rotating(path, cp);

  // Corrupt the current generation: injected bit flip mid-file.
  {
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    std::string text = buf.str();
    text[text.size() / 2] ^= 0x01;
    spit(path, text);
  }
  bool used_prev = false;
  const fault::RunCheckpoint rt =
      fault::load_checkpoint_resilient(path, &used_prev);
  EXPECT_TRUE(used_prev);
  EXPECT_EQ(rt.snap_id, 1u);

  // Both generations corrupt -> FaultError (and truncation, not just
  // bit flips, is detected).
  spit(path + ".prev", "grape6-checkpoint-v1\ntruncated");
  spit(path, "");
  EXPECT_THROW(fault::load_checkpoint_resilient(path), fault::FaultError);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace g6
