// grape6-wire-v1 envelope contract: strict parse (anything off-schema
// throws WireError), and lossless round-trips for the two payloads that
// carry physics — job specs (manifest-shaped) and particle snapshots
// (17-digit doubles, binary64-exact).
#include "wire/envelope.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "nbody/particle.hpp"
#include "obs/json.hpp"
#include "serve/types.hpp"
#include "util/rng.hpp"

namespace g6::wire {
namespace {

Envelope parse(const std::string& text) { return parse_envelope(text); }

TEST(WireEnvelope, ParsesMinimalRequest) {
  const Envelope env = parse(
      R"({"schema":"grape6-wire-v1","kind":"request","id":7,"method":"ping"})");
  EXPECT_EQ(env.kind, "request");
  EXPECT_EQ(env.id, 7u);
  EXPECT_EQ(env.method, "ping");
}

TEST(WireEnvelope, ParsesResponseAndEvent) {
  const Envelope resp = parse(
      R"({"schema":"grape6-wire-v1","kind":"response","id":3,"ok":true})");
  EXPECT_EQ(resp.kind, "response");
  EXPECT_EQ(resp.id, 3u);

  const Envelope ev = parse(
      R"({"schema":"grape6-wire-v1","kind":"event","event":"progress","job":1})");
  EXPECT_EQ(ev.kind, "event");
  EXPECT_EQ(ev.event, "progress");
}

TEST(WireEnvelope, MalformedJsonThrows) {
  EXPECT_THROW(parse("{nope"), WireError);
  EXPECT_THROW(parse("[1,2,3]"), WireError);  // not an object
  EXPECT_THROW(parse("42"), WireError);
}

TEST(WireEnvelope, WrongSchemaThrows) {
  EXPECT_THROW(
      parse(R"({"schema":"grape6-wire-v0","kind":"request","id":1,"method":"ping"})"),
      WireError);
  EXPECT_THROW(parse(R"({"kind":"request","id":1,"method":"ping"})"),
               WireError);
}

TEST(WireEnvelope, UnknownKindThrows) {
  EXPECT_THROW(parse(R"({"schema":"grape6-wire-v1","kind":"notify"})"),
               WireError);
}

TEST(WireEnvelope, RequestMissingIdOrMethodThrows) {
  EXPECT_THROW(parse(R"({"schema":"grape6-wire-v1","kind":"request","method":"ping"})"),
               WireError);
  EXPECT_THROW(parse(R"({"schema":"grape6-wire-v1","kind":"request","id":1})"),
               WireError);
  // id must be a non-negative integer, not prose or a fraction.
  EXPECT_THROW(
      parse(R"({"schema":"grape6-wire-v1","kind":"request","id":"x","method":"ping"})"),
      WireError);
  EXPECT_THROW(
      parse(R"({"schema":"grape6-wire-v1","kind":"request","id":1.5,"method":"ping"})"),
      WireError);
}

TEST(WireEnvelope, ResponseMissingOkThrows) {
  EXPECT_THROW(parse(R"({"schema":"grape6-wire-v1","kind":"response","id":1})"),
               WireError);
}

TEST(WireEnvelope, EventMissingNameThrows) {
  EXPECT_THROW(parse(R"({"schema":"grape6-wire-v1","kind":"event"})"),
               WireError);
}

TEST(WireEnvelope, IntegersOutOfRangeThrow) {
  // Socket clients send these: an out-of-range integer must be a
  // WireError, never a cast with undefined behaviour.
  for (const char* id : {"-1", "18446744073709551616", "1e300"}) {
    EXPECT_THROW(
        parse(std::string(R"({"schema":"grape6-wire-v1","kind":"request",)") +
              R"("id":)" + id + R"(,"method":"ping"})"),
        WireError)
        << id;
  }
  for (const char* kv :
       {R"("seed":-1)", R"("seed":4294967297)", R"("n":18446744073709551616)",
        R"("n":1e300)", R"("chaos_fail_quanta":4294967297)"}) {
    EXPECT_THROW(decode_job_spec(obs::JsonValue::parse(
                     std::string(R"({"name":"a",)") + kv + "}")),
                 WireError)
        << kv;
  }
  EXPECT_EQ(decode_job_spec(obs::JsonValue::parse(
                                R"({"name":"a","seed":4294967295})"))
                .seed,
            4294967295u);
}

// ---------------------------------------------------------------- specs

serve::JobSpec round_trip(const serve::JobSpec& spec) {
  std::ostringstream os;
  encode_job_spec(os, spec);
  return decode_job_spec(obs::JsonValue::parse(os.str()));
}

TEST(WireEnvelope, JobSpecRoundTripsEveryField) {
  serve::JobSpec spec;
  spec.name = "wire \"quoted\" job";
  spec.model = "plummer";
  spec.n = 192;
  spec.w0 = 5.5;
  spec.t_end = 0.125;
  spec.eps = 0.0078125;
  spec.eta = 0.017;
  spec.seed = 424242;
  spec.boards = 2;
  spec.boards_min = 1;
  spec.boards_max = 4;
  spec.priority = serve::Priority::kInteractive;
  spec.deadline_rounds = 9;
  spec.chaos_fail_quanta = 3;

  const serve::JobSpec back = round_trip(spec);
  EXPECT_EQ(back.name, spec.name);
  EXPECT_EQ(back.model, spec.model);
  EXPECT_EQ(back.n, spec.n);
  EXPECT_EQ(back.w0, spec.w0);
  EXPECT_EQ(back.t_end, spec.t_end);
  EXPECT_EQ(back.eps, spec.eps);
  EXPECT_EQ(back.eta, spec.eta);
  EXPECT_EQ(back.seed, spec.seed);
  EXPECT_EQ(back.boards, spec.boards);
  EXPECT_EQ(back.boards_min, spec.boards_min);
  EXPECT_EQ(back.boards_max, spec.boards_max);
  EXPECT_EQ(back.priority, spec.priority);
  EXPECT_EQ(back.deadline_rounds, spec.deadline_rounds);
  EXPECT_EQ(back.chaos_fail_quanta, spec.chaos_fail_quanta);
}

TEST(WireEnvelope, JobSpecDefaultsRoundTrip) {
  serve::JobSpec spec;
  spec.name = "defaults";
  const serve::JobSpec back = round_trip(spec);
  EXPECT_EQ(back.n, spec.n);
  EXPECT_EQ(back.priority, spec.priority);
  EXPECT_EQ(back.boards_min, spec.boards_min);
  EXPECT_EQ(back.boards_max, spec.boards_max);
}

TEST(WireEnvelope, JobSpecUnknownKeyThrows) {
  EXPECT_THROW(
      decode_job_spec(obs::JsonValue::parse(R"({"name":"x","frobnicate":1})")),
      WireError);
}

TEST(WireEnvelope, JobSpecBadPriorityThrows) {
  EXPECT_THROW(
      decode_job_spec(obs::JsonValue::parse(R"({"name":"x","priority":"rush"})")),
      WireError);
}

TEST(WireEnvelope, JobSpecMissingNameThrows) {
  EXPECT_THROW(decode_job_spec(obs::JsonValue::parse(R"({"n":64})")),
               WireError);
}

// ------------------------------------------------------------ snapshots

TEST(WireEnvelope, SnapshotRoundTripIsBinary64Exact) {
  // Awkward doubles on purpose: the 17-significant-digit encoding must
  // bring every bit pattern home (that is what makes client-written
  // snapshot files byte-identical to server-written ones).
  Rng rng(20260809);
  ParticleSet set;
  for (int i = 0; i < 33; ++i) {
    Body b;
    b.mass = 1.0 / 33.0 + 1e-17 * static_cast<double>(i);
    b.pos = Vec3(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                 rng.uniform(-1.0, 1.0));
    b.vel = Vec3(rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1),
                 rng.uniform(-0.1, 0.1));
    set.add(b);
  }
  const double t = 0.1 + 0.2;  // famously not 0.3

  std::ostringstream os;
  encode_snapshot(os, set, t);
  double t_back = 0.0;
  const ParticleSet back =
      decode_snapshot(obs::JsonValue::parse(os.str()), &t_back);

  ASSERT_EQ(back.size(), set.size());
  EXPECT_EQ(t_back, t);  // exact, not near
  for (std::size_t i = 0; i < set.size(); ++i) {
    EXPECT_EQ(back.bodies()[i].mass, set.bodies()[i].mass) << "body " << i;
    EXPECT_EQ(back.bodies()[i].pos.x, set.bodies()[i].pos.x) << "body " << i;
    EXPECT_EQ(back.bodies()[i].pos.y, set.bodies()[i].pos.y) << "body " << i;
    EXPECT_EQ(back.bodies()[i].pos.z, set.bodies()[i].pos.z) << "body " << i;
    EXPECT_EQ(back.bodies()[i].vel.x, set.bodies()[i].vel.x) << "body " << i;
    EXPECT_EQ(back.bodies()[i].vel.y, set.bodies()[i].vel.y) << "body " << i;
    EXPECT_EQ(back.bodies()[i].vel.z, set.bodies()[i].vel.z) << "body " << i;
  }
}

TEST(WireEnvelope, SnapshotCountMismatchThrows) {
  EXPECT_THROW(decode_snapshot(obs::JsonValue::parse(
                   R"({"t":0,"n":2,"bodies":[[1,0,0,0,0,0,0]]})"),
                               nullptr),
               WireError);
}

TEST(WireEnvelope, SnapshotMalformedBodyThrows) {
  EXPECT_THROW(decode_snapshot(obs::JsonValue::parse(
                   R"({"t":0,"n":1,"bodies":[[1,0,0,0,0,0]]})"),  // 6 comps
                               nullptr),
               WireError);
  EXPECT_THROW(decode_snapshot(obs::JsonValue::parse(
                   R"({"t":0,"n":1,"bodies":[["m",0,0,0,0,0,0]]})"),
                               nullptr),
               WireError);
  EXPECT_THROW(
      decode_snapshot(obs::JsonValue::parse(R"({"t":0,"n":1})"), nullptr),
      WireError);
}

}  // namespace
}  // namespace g6::wire
