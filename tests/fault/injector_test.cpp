#include "fault/injector.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "fault/checksum.hpp"
#include "hw/jstore.hpp"
#include "util/errors.hpp"
#include "fault/plan.hpp"
#include "obs/json.hpp"

namespace g6::fault {
namespace {

std::vector<StoredJParticle> test_memory(std::size_t n) {
  std::vector<StoredJParticle> mem(n);
  for (std::size_t i = 0; i < n; ++i) {
    mem[i].index = static_cast<std::uint32_t>(i);
    mem[i].mass = 1.0 / static_cast<double>(n);
    mem[i].t0 = 0.25;
    mem[i].pos[0] = static_cast<std::int64_t>(i) * 1000 + 1;
    mem[i].pos[1] = -static_cast<std::int64_t>(i) * 7;
    mem[i].pos[2] = 42;
    mem[i].vel = {0.1, -0.2, 0.3};
    mem[i].acc = {1.5, 2.5, -3.5};
    mem[i].jerk = {-0.01, 0.02, 0.03};
    mem[i].snap = {4.0, -5.0, 6.0};
  }
  return mem;
}

std::vector<IParticlePacket> test_packets(std::size_t n) {
  std::vector<IParticlePacket> pk(n);
  for (std::size_t i = 0; i < n; ++i) {
    pk[i].index = static_cast<std::uint32_t>(i);
    pk[i].pos[0] = static_cast<std::int64_t>(i) + 17;
    pk[i].pos[1] = 2;
    pk[i].pos[2] = 3;
    pk[i].vel = {1.0, 2.0, 3.0};
    pk[i].h2 = 0.125;
  }
  return pk;
}

bool same_bits(const StoredJParticle& a, const StoredJParticle& b) {
  return checksum(a) == checksum(b);
}

TEST(FaultInjector, SameSeedSameFaultStream) {
  // Reproducibility is the whole point of the injector: the identical
  // call sequence against the identical data must corrupt the identical
  // words in the identical way.
  const FaultPlan plan = FaultPlan::uniform_transients(0.05, 1234);
  FaultInjector a(plan), b(plan);

  JStore mem_a = JStore::from_aos(test_memory(64));
  JStore mem_b = JStore::from_aos(test_memory(64));
  auto pk_a = test_packets(48), pk_b = test_packets(48);

  EXPECT_EQ(a.corrupt_j_memory(0.0, 3, mem_a), b.corrupt_j_memory(0.0, 3, mem_b));
  EXPECT_EQ(a.corrupt_i_packets(0.0, pk_a), b.corrupt_i_packets(0.0, pk_b));

  for (std::size_t i = 0; i < mem_a.size(); ++i) {
    EXPECT_EQ(checksum(mem_a.get(i)), checksum(mem_b.get(i))) << "j slot " << i;
  }
  for (std::size_t i = 0; i < pk_a.size(); ++i) {
    EXPECT_EQ(checksum(pk_a[i]), checksum(pk_b[i])) << "i slot " << i;
  }
  EXPECT_EQ(a.counts().jmem_flips, b.counts().jmem_flips);
  EXPECT_EQ(a.counts().ipacket_corruptions, b.counts().ipacket_corruptions);
  EXPECT_EQ(a.events().size(), b.events().size());
}

TEST(FaultInjector, DifferentSeedDifferentStream) {
  FaultInjector a(FaultPlan::uniform_transients(0.05, 1));
  FaultInjector b(FaultPlan::uniform_transients(0.05, 2));
  JStore mem_a = JStore::from_aos(test_memory(256));
  JStore mem_b = JStore::from_aos(test_memory(256));
  a.corrupt_j_memory(0.0, 0, mem_a);
  b.corrupt_j_memory(0.0, 0, mem_b);
  bool differ = false;
  for (std::size_t i = 0; i < mem_a.size(); ++i) {
    if (!same_bits(mem_a.get(i), mem_b.get(i))) differ = true;
  }
  EXPECT_TRUE(differ);
}

TEST(FaultInjector, ZeroRateInjectsNothingAndConsumesNoRandomness) {
  // A disabled channel must not advance the RNG, or enabling one channel
  // would change another channel's fault sequence.
  FaultPlan plan;
  plan.seed = 99;
  plan.ipacket_rate = 0.2;  // jmem_flip_rate stays 0
  FaultInjector with_noop(plan), without(plan);

  JStore mem = JStore::from_aos(test_memory(128));
  const auto before = test_memory(128);
  EXPECT_EQ(with_noop.corrupt_j_memory(0.0, 0, mem), 0u);
  for (std::size_t i = 0; i < mem.size(); ++i) {
    EXPECT_TRUE(same_bits(mem.get(i), before[i])) << i;
  }

  auto pk_a = test_packets(64), pk_b = test_packets(64);
  with_noop.corrupt_i_packets(0.0, pk_a);  // after the zero-rate call
  without.corrupt_i_packets(0.0, pk_b);    // no zero-rate call first
  for (std::size_t i = 0; i < pk_a.size(); ++i) {
    EXPECT_EQ(checksum(pk_a[i]), checksum(pk_b[i])) << i;
  }
}

TEST(FaultInjector, HardFailureActivationExpandsHierarchy) {
  // Geometry: 2 chips/module, 2 modules/board => 4 chips per board.
  FaultPlan plan;
  plan.hard_failures.push_back({1.0, 1, -1, -1});  // whole board 1
  plan.hard_failures.push_back({2.0, 0, 1, -1});   // board 0, module 1
  plan.hard_failures.push_back({3.0, 0, 0, 1});    // single chip
  FaultInjector inj(plan);

  EXPECT_TRUE(inj.activate_hard_failures(0.5, 2, 4).empty());

  const auto at1 = inj.activate_hard_failures(1.0, 2, 4);
  EXPECT_EQ(at1, (std::vector<int>{4, 5, 6, 7}));
  EXPECT_TRUE(inj.chip_hard_failed(5));
  EXPECT_FALSE(inj.chip_hard_failed(3));

  const auto at2 = inj.activate_hard_failures(2.0, 2, 4);
  EXPECT_EQ(at2, (std::vector<int>{2, 3}));

  const auto at3 = inj.activate_hard_failures(3.5, 2, 4);
  EXPECT_EQ(at3, (std::vector<int>{1}));
  EXPECT_EQ(inj.counts().hard_activations, 7u);

  // Idempotent: re-activation returns nothing new.
  EXPECT_TRUE(inj.activate_hard_failures(10.0, 2, 4).empty());
}

TEST(FaultChecksum, EverySingleBitFlipDetectedInJParticle) {
  // The scrub relies on this: one upset anywhere in the stored image must
  // change the digest. Exhaustively flip every bit of every field.
  const auto mem = test_memory(1);
  const StoredJParticle ref = mem[0];
  const std::uint64_t base = checksum(ref);

  const auto expect_detects = [&](auto&& mutate, const char* field) {
    for (int bit = 0; bit < 64; ++bit) {
      StoredJParticle p = ref;
      mutate(p, bit);
      EXPECT_NE(checksum(p), base) << field << " bit " << bit;
    }
  };
  for (int bit = 0; bit < 32; ++bit) {
    StoredJParticle p = ref;
    p.index ^= (1u << bit);
    EXPECT_NE(checksum(p), base) << "index bit " << bit;
  }
  expect_detects([](StoredJParticle& p, int b) {
    p.mass = std::bit_cast<double>(std::bit_cast<std::uint64_t>(p.mass) ^ (1ULL << b));
  }, "mass");
  expect_detects([](StoredJParticle& p, int b) {
    p.t0 = std::bit_cast<double>(std::bit_cast<std::uint64_t>(p.t0) ^ (1ULL << b));
  }, "t0");
  for (int d = 0; d < 3; ++d) {
    expect_detects([d](StoredJParticle& p, int b) {
      p.pos[d] ^= (1LL << b);
    }, "pos");
    expect_detects([d](StoredJParticle& p, int b) {
      p.vel[d] = std::bit_cast<double>(std::bit_cast<std::uint64_t>(p.vel[d]) ^ (1ULL << b));
    }, "vel");
    expect_detects([d](StoredJParticle& p, int b) {
      p.acc[d] = std::bit_cast<double>(std::bit_cast<std::uint64_t>(p.acc[d]) ^ (1ULL << b));
    }, "acc");
    expect_detects([d](StoredJParticle& p, int b) {
      p.jerk[d] = std::bit_cast<double>(std::bit_cast<std::uint64_t>(p.jerk[d]) ^ (1ULL << b));
    }, "jerk");
    expect_detects([d](StoredJParticle& p, int b) {
      p.snap[d] = std::bit_cast<double>(std::bit_cast<std::uint64_t>(p.snap[d]) ^ (1ULL << b));
    }, "snap");
  }
}

TEST(FaultChecksum, EverySingleBitFlipDetectedInIPacket) {
  const auto pk = test_packets(1);
  const IParticlePacket ref = pk[0];
  const std::uint64_t base = checksum(ref);
  for (int bit = 0; bit < 32; ++bit) {
    IParticlePacket p = ref;
    p.index ^= (1u << bit);
    EXPECT_NE(checksum(p), base) << "index bit " << bit;
  }
  for (int d = 0; d < 3; ++d) {
    for (int bit = 0; bit < 64; ++bit) {
      IParticlePacket p = ref;
      p.pos[d] ^= (1LL << bit);
      EXPECT_NE(checksum(p), base) << "pos bit " << bit;
      IParticlePacket q = ref;
      q.vel[d] = std::bit_cast<double>(std::bit_cast<std::uint64_t>(q.vel[d]) ^ (1ULL << bit));
      EXPECT_NE(checksum(q), base) << "vel bit " << bit;
    }
  }
  for (int bit = 0; bit < 64; ++bit) {
    IParticlePacket p = ref;
    p.h2 = std::bit_cast<double>(std::bit_cast<std::uint64_t>(p.h2) ^ (1ULL << bit));
    EXPECT_NE(checksum(p), base) << "h2 bit " << bit;
  }
}

TEST(FaultPlanJson, ParsesAllKnownKeys) {
  const auto doc = obs::JsonValue::parse(R"({
    "seed": 77,
    "jmem_flip_rate": 0.001,
    "ipacket_rate": 0.002,
    "compute_rate": 0.003,
    "stuck_chips": [3, 9],
    "hard_failures": [{"time": 0.5, "board": 1, "module": 2, "chip": 0}],
    "link_drop_rate": 0.01,
    "link_spike_rate": 0.02,
    "link_spike_factor": 5.0,
    "retransmit_timeout_s": 2e-4
  })");
  const FaultPlan plan = FaultPlan::from_json(doc);
  EXPECT_EQ(plan.seed, 77u);
  EXPECT_DOUBLE_EQ(plan.jmem_flip_rate, 0.001);
  EXPECT_DOUBLE_EQ(plan.ipacket_rate, 0.002);
  EXPECT_DOUBLE_EQ(plan.compute_rate, 0.003);
  EXPECT_EQ(plan.stuck_chips, (std::vector<int>{3, 9}));
  ASSERT_EQ(plan.hard_failures.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.hard_failures[0].time, 0.5);
  EXPECT_EQ(plan.hard_failures[0].board, 1);
  EXPECT_EQ(plan.hard_failures[0].module, 2);
  EXPECT_EQ(plan.hard_failures[0].chip, 0);
  EXPECT_DOUBLE_EQ(plan.link_drop_rate, 0.01);
  EXPECT_DOUBLE_EQ(plan.link_spike_rate, 0.02);
  EXPECT_DOUBLE_EQ(plan.link_spike_factor, 5.0);
  EXPECT_DOUBLE_EQ(plan.retransmit_timeout_s, 2e-4);
  EXPECT_TRUE(plan.any());
}

TEST(FaultPlanJson, RejectsUnknownKeysAndBadValues) {
  // Typos in chaos configs must fail loudly, not silently no-op.
  EXPECT_THROW(FaultPlan::from_json(obs::JsonValue::parse(
                   R"({"jmem_fliprate": 0.1})")),
               FaultError);
  EXPECT_THROW(FaultPlan::from_json(obs::JsonValue::parse(
                   R"({"jmem_flip_rate": 1.5})")),
               FaultError);
  EXPECT_THROW(FaultPlan::from_json(obs::JsonValue::parse(
                   R"({"hard_failures": [{"time": 0.5}]})")),
               FaultError);
  EXPECT_THROW(FaultPlan::from_json(obs::JsonValue::parse(
                   R"({"hard_failures": [{"board": 0, "bord": 1}]})")),
               FaultError);
  EXPECT_THROW(FaultPlan::from_json(obs::JsonValue::parse(R"([1, 2])")),
               FaultError);
}

TEST(FaultPlanJson, RejectsIntegersOutOfRange) {
  // "seed": -1 once became 2^64 - 1, and 1e300 a cast with undefined
  // behaviour; both must be FaultErrors.
  for (const char* doc :
       {R"({"seed": -1})", R"({"seed": 18446744073709551616})",
        R"({"seed": 1e300})", R"({"stuck_chips": [4294967297]})",
        R"({"hard_failures": [{"board": 4294967297}]})",
        R"({"hard_failures": [{"board": 0, "chip": 1e300}]})"}) {
    EXPECT_THROW(FaultPlan::from_json(obs::JsonValue::parse(doc)), FaultError)
        << doc;
  }
  const auto big = obs::JsonValue::parse(R"({"seed": 9007199254740992})");
  EXPECT_EQ(FaultPlan::from_json(big).seed, 9007199254740992u);
}

TEST(FaultPlanJson, MissingFileThrows) {
  EXPECT_THROW(FaultPlan::from_file("/nonexistent/fault-plan.json"), FaultError);
}

TEST(FaultPlan, EmptyPlanIsInert) {
  const FaultPlan plan;
  EXPECT_FALSE(plan.any());
  FaultInjector inj(plan);
  JStore mem = JStore::from_aos(test_memory(32));
  const auto before = test_memory(32);
  EXPECT_EQ(inj.corrupt_j_memory(0.0, 0, mem), 0u);
  auto pk = test_packets(16);
  EXPECT_EQ(inj.corrupt_i_packets(0.0, pk), 0u);
  EXPECT_FALSE(inj.drop_message());
  EXPECT_DOUBLE_EQ(inj.latency_factor(), 1.0);
  for (std::size_t i = 0; i < mem.size(); ++i) {
    EXPECT_TRUE(same_bits(mem.get(i), before[i])) << i;
  }
}

}  // namespace
}  // namespace g6::fault
