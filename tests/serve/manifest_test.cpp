// Manifest loading: schema grape6-serve-manifest-v1, strict keys — a
// typo surfaces as ManifestError at load time, never as a silently
// mis-specified simulation.

#include <gtest/gtest.h>

#include <string>

#include "serve/manifest.hpp"

namespace g6::serve {
namespace {

const char* kGood = R"({
  "schema": "grape6-serve-manifest-v1",
  "service": {
    "max_queue_depth": 8,
    "quantum_blocksteps": 4,
    "max_requeues": 1,
    "boards_per_host": 2,
    "hosts_per_cluster": 1,
    "clusters": 1,
    "board_deaths": [ {"round": 3, "board": 0} ]
  },
  "jobs": [
    { "name": "a", "model": "plummer", "n": 64, "t_end": 0.125,
      "seed": 3, "boards": 1, "priority": "interactive" },
    { "name": "b", "n": 32, "boards": 2, "priority": "batch",
      "eta": 0.01, "eps": 0.03125, "w0": 5.0, "model": "king" }
  ]
})";

TEST(ServeManifest, ParsesEveryField) {
  const Manifest m = parse_manifest(kGood);
  EXPECT_EQ(m.service.max_queue_depth, 8u);
  EXPECT_EQ(m.service.quantum_blocksteps, 4u);
  EXPECT_EQ(m.service.max_requeues, 1);
  EXPECT_EQ(m.service.pool_boards(), 2u);
  ASSERT_EQ(m.service.board_deaths.size(), 1u);
  EXPECT_EQ(m.service.board_deaths[0].round, 3u);
  EXPECT_EQ(m.service.board_deaths[0].board, 0u);

  ASSERT_EQ(m.jobs.size(), 2u);
  EXPECT_EQ(m.jobs[0].name, "a");
  EXPECT_EQ(m.jobs[0].priority, Priority::kInteractive);
  EXPECT_EQ(m.jobs[0].n, 64u);
  EXPECT_EQ(m.jobs[1].model, "king");
  EXPECT_EQ(m.jobs[1].w0, 5.0);
  EXPECT_EQ(m.jobs[1].boards, 2u);
  EXPECT_EQ(m.jobs[1].priority, Priority::kBatch);
}

TEST(ServeManifest, DefaultsApplyWhenKeysAbsent) {
  const Manifest m = parse_manifest(R"({
    "schema": "grape6-serve-manifest-v1",
    "jobs": [ {"name": "solo"} ]
  })");
  const JobSpec defaults;
  EXPECT_EQ(m.jobs[0].model, defaults.model);
  EXPECT_EQ(m.jobs[0].n, defaults.n);
  EXPECT_EQ(m.jobs[0].t_end, defaults.t_end);
  EXPECT_EQ(m.service.max_queue_depth, ServiceConfig{}.max_queue_depth);
}

void expect_error(const std::string& text, const std::string& needle) {
  try {
    parse_manifest(text);
    FAIL() << "expected ManifestError mentioning '" << needle << "'";
  } catch (const ManifestError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual: " << e.what();
  }
}

TEST(ServeManifest, RejectsSchemaViolations) {
  expect_error("", "empty");
  expect_error("{", "not valid JSON");
  expect_error(R"({"jobs": []})", "schema");
  expect_error(R"({"schema": "v0", "jobs": [{"name":"a"}]})", "schema");
  expect_error(R"({"schema": "grape6-serve-manifest-v1", "jobs": []})",
               "empty");
}

TEST(ServeManifest, ServiceOnlyManifestHasNoJobs) {
  // No "jobs" key at all: the daemon-shape manifest (grape6_served gets
  // its jobs over the wire). Distinct from a present-but-empty array,
  // which stays an error above.
  const Manifest m = parse_manifest(R"({
    "schema": "grape6-serve-manifest-v1",
    "service": {"boards_per_host": 2, "hosts_per_cluster": 1, "clusters": 1}
  })");
  EXPECT_TRUE(m.jobs.empty());
  EXPECT_EQ(m.service.machine.boards_per_host, 2u);
}

TEST(ServeManifest, RejectsUnknownKeysEverywhere) {
  expect_error(R"({"schema": "grape6-serve-manifest-v1",
                   "jobs": [{"name":"a"}], "extra": 1})",
               "unknown key 'extra'");
  expect_error(R"({"schema": "grape6-serve-manifest-v1",
                   "service": {"quantum": 4}, "jobs": [{"name":"a"}]})",
               "unknown key 'quantum'");
  expect_error(R"({"schema": "grape6-serve-manifest-v1",
                   "jobs": [{"name":"a", "nparticles": 64}]})",
               "unknown key 'nparticles'");
}

TEST(ServeManifest, RejectsBadJobValues) {
  expect_error(R"({"schema": "grape6-serve-manifest-v1",
                   "jobs": [{"model": "plummer"}]})",
               "missing required key 'name'");
  expect_error(R"({"schema": "grape6-serve-manifest-v1",
                   "jobs": [{"name":"a", "n": 2.5}]})",
               "non-negative integer");
  expect_error(R"({"schema": "grape6-serve-manifest-v1",
                   "jobs": [{"name":"a", "priority": "urgent"}]})",
               "priority");
  expect_error(R"({"schema": "grape6-serve-manifest-v1",
                   "jobs": [{"name":"a", "model": "galaxy"}]})",
               "unknown model");
  expect_error(R"({"schema": "grape6-serve-manifest-v1",
                   "jobs": [{"name":"a"}, {"name":"a"}]})",
               "duplicate job name");
}

TEST(ServeManifest, RejectsBadServiceValues) {
  expect_error(R"({"schema": "grape6-serve-manifest-v1",
                   "service": {"quantum_blocksteps": 0},
                   "jobs": [{"name":"a"}]})",
               "quantum_blocksteps");
  expect_error(R"({"schema": "grape6-serve-manifest-v1",
                   "service": {"boards_per_host": 1, "hosts_per_cluster": 1,
                               "clusters": 1,
                               "board_deaths": [{"round": 1, "board": 4}]},
                   "jobs": [{"name":"a"}]})",
               "outside");
  expect_error(R"({"schema": "grape6-serve-manifest-v1",
                   "service": {"board_deaths": [{"round": 1}]},
                   "jobs": [{"name":"a"}]})",
               "board_deaths");
}

TEST(ServeManifest, RejectsIntegersOutOfRange) {
  // A bare cast once mapped these onto other, valid settings
  // (4294967297 -> 1 in a 32-bit field, 1e300 -> 0): each must be refused.
  const auto job = [](const std::string& kv) {
    return R"({"schema": "grape6-serve-manifest-v1", "jobs": [{"name": "a", )" +
           kv + "}]}";
  };
  for (const char* kv :
       {R"("seed": -1)", R"("seed": 4294967297)",
        R"("n": 18446744073709551616)", R"("n": 1e300)",
        R"("chaos_fail_quanta": 4294967297)"}) {
    SCOPED_TRACE(kv);
    expect_error(job(kv), "non-negative integer");
  }
  const auto service = [](const std::string& kv) {
    return R"({"schema": "grape6-serve-manifest-v1", "service": {)" + kv +
           R"(}, "jobs": [{"name": "a"}]})";
  };
  for (const char* kv :
       {R"("max_requeues": -1)", R"("max_requeues": 4294967297)",
        R"("max_queue_depth": 18446744073709551616)",
        R"("backoff_base_rounds": 1e300)"}) {
    SCOPED_TRACE(kv);
    expect_error(service(kv), "non-negative integer");
  }
  // The edges of each type still parse.
  EXPECT_EQ(parse_manifest(job(R"("seed": 4294967295)")).jobs[0].seed,
            4294967295u);
  EXPECT_EQ(parse_manifest(service(R"("max_requeues": 2147483647)"))
                .service.max_requeues,
            2147483647);
}

TEST(ServeManifest, LoadReportsMissingFile) {
  EXPECT_THROW(load_manifest("/nonexistent/manifest.json"), ManifestError);
}

}  // namespace
}  // namespace g6::serve
