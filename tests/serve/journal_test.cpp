// White-box tests for the write-ahead job journal: encode/decode
// round-trips, the strict-key contract (unknown AND missing keys both
// reject), sequence validation, and torn-tail tolerance — the exact
// failure envelope the append protocol guarantees.
#include "serve/journal.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

namespace g6::serve {
namespace {

namespace fs = std::filesystem;

JobSpec demo_spec() {
  JobSpec s;
  s.name = "cluster-a";
  s.model = "plummer";
  s.n = 512;
  s.w0 = 5.0;
  s.t_end = 0.25;
  s.eps = 1.0 / 64.0;
  s.eta = 0.01;  // not exactly representable: exercises the 17-digit rule
  s.seed = 42;
  s.boards = 2;
  s.boards_min = 1;
  s.boards_max = 4;
  s.priority = Priority::kInteractive;
  s.deadline_rounds = 30;
  s.chaos_fail_quanta = 1;
  return s;
}

ServiceConfig demo_config() {
  ServiceConfig c;
  c.max_queue_depth = 8;
  c.quantum_blocksteps = 16;
  c.max_requeues = 2;
  c.max_job_failures = 3;
  c.backoff_base_rounds = 2;
  c.durability.journal_path = "serve.wal";
  c.durability.checkpoint_dir = "ckpts";
  c.durability.checkpoint_every_quanta = 4;
  c.board_deaths.push_back({5, 1});
  return c;
}

TEST(JournalRecordTest, TypeNamesRoundTrip) {
  for (int t = 0; t <= static_cast<int>(JournalRecordType::kLeaseResized);
       ++t) {
    const auto rt = static_cast<JournalRecordType>(t);
    JournalRecord rec;
    rec.seq = 1;
    rec.type = rt;
    // kOpen needs a schema; others take defaults.
    const JournalRecord back = decode_record(encode_record(rec));
    EXPECT_EQ(static_cast<int>(back.type), t)
        << journal_record_type_name(rt);
  }
}

TEST(JournalRecordTest, OpenRecordRoundTripsConfig) {
  JournalRecord rec;
  rec.seq = 1;
  rec.type = JournalRecordType::kOpen;
  rec.config = demo_config();
  const JournalRecord back = decode_record(encode_record(rec));
  EXPECT_EQ(back.config.max_queue_depth, 8u);
  EXPECT_EQ(back.config.quantum_blocksteps, 16u);
  EXPECT_EQ(back.config.max_requeues, 2);
  EXPECT_EQ(back.config.max_job_failures, 3);
  EXPECT_EQ(back.config.backoff_base_rounds, 2u);
  EXPECT_EQ(back.config.durability.checkpoint_dir, "ckpts");
  EXPECT_EQ(back.config.durability.checkpoint_every_quanta, 4u);
  ASSERT_EQ(back.config.board_deaths.size(), 1u);
  EXPECT_EQ(back.config.board_deaths[0].round, 5u);
  EXPECT_EQ(back.config.board_deaths[0].board, 1u);
}

TEST(JournalRecordTest, SubmittedRecordRoundTripsSpecBitExactly) {
  JournalRecord rec;
  rec.seq = 2;
  rec.type = JournalRecordType::kSubmitted;
  rec.job = 1;
  rec.spec = demo_spec();
  const JournalRecord back = decode_record(encode_record(rec));
  EXPECT_EQ(back.job, 1u);
  EXPECT_EQ(back.spec.name, "cluster-a");
  EXPECT_EQ(back.spec.model, "plummer");
  EXPECT_EQ(back.spec.n, 512u);
  EXPECT_EQ(back.spec.w0, 5.0);
  EXPECT_EQ(back.spec.t_end, 0.25);
  EXPECT_EQ(back.spec.eps, 1.0 / 64.0);
  EXPECT_EQ(back.spec.eta, 0.01);  // bit-exact via 17 significant digits
  EXPECT_EQ(back.spec.seed, 42u);
  EXPECT_EQ(back.spec.boards, 2u);
  EXPECT_EQ(back.spec.boards_min, 1u);
  EXPECT_EQ(back.spec.boards_max, 4u);
  EXPECT_EQ(back.spec.priority, Priority::kInteractive);
  EXPECT_EQ(back.spec.deadline_rounds, 30u);
  EXPECT_EQ(back.spec.chaos_fail_quanta, 1);
}

TEST(JournalRecordTest, ProgressRecordsRoundTrip) {
  JournalRecord rec;
  rec.seq = 9;
  rec.round = 12;
  rec.type = JournalRecordType::kFinished;
  rec.job = 3;
  rec.quanta = 7;
  rec.t = 0.2499999999999999;
  rec.e0 = -0.2500000000000017;
  rec.e_final = -0.2500000000000018;
  rec.steps = 12345;
  rec.blocksteps = 678;
  const JournalRecord back = decode_record(encode_record(rec));
  EXPECT_EQ(back.round, 12u);
  EXPECT_EQ(back.quanta, 7u);
  EXPECT_EQ(back.t, rec.t);
  EXPECT_EQ(back.e0, rec.e0);
  EXPECT_EQ(back.e_final, rec.e_final);
  EXPECT_EQ(back.steps, 12345u);
  EXPECT_EQ(back.blocksteps, 678u);
}

TEST(JournalRecordTest, RequeueRecordRoundTripsPolicyCounters) {
  JournalRecord rec;
  rec.seq = 4;
  rec.type = JournalRecordType::kRequeued;
  rec.job = 2;
  rec.reason = "retry";
  rec.requeues = 1;
  rec.failures = 2;
  rec.hold_until = 17;
  const JournalRecord back = decode_record(encode_record(rec));
  EXPECT_EQ(back.reason, "retry");
  EXPECT_EQ(back.requeues, 1);
  EXPECT_EQ(back.failures, 2);
  EXPECT_EQ(back.hold_until, 17u);
}

TEST(JournalRecordTest, LeaseResizedRecordRoundTrips) {
  JournalRecord rec;
  rec.seq = 6;
  rec.round = 9;
  rec.type = JournalRecordType::kLeaseResized;
  rec.job = 4;
  rec.boards = 3;
  rec.reason = "grow";
  const JournalRecord back = decode_record(encode_record(rec));
  EXPECT_EQ(back.type, JournalRecordType::kLeaseResized);
  EXPECT_EQ(back.job, 4u);
  EXPECT_EQ(back.boards, 3u);
  EXPECT_EQ(back.reason, "grow");
  // Strict keys: a lease-resized record without its new size is corrupt.
  EXPECT_THROW(
      decode_record("{\"seq\":6,\"type\":\"lease-resized\",\"round\":9,"
                    "\"job\":4,\"reason\":\"grow\"}"),
      JournalError);
}

TEST(JournalRecordTest, UnknownKeyIsRejected) {
  JournalRecord rec;
  rec.seq = 3;
  rec.type = JournalRecordType::kAdmitted;
  rec.job = 1;
  std::string line = encode_record(rec);
  line.insert(line.size() - 1, ",\"surprise\":1");
  EXPECT_THROW(decode_record(line), JournalError);
}

TEST(JournalRecordTest, MissingKeyIsRejected) {
  // Strict keys both ways: dropping a required field must fail too.
  EXPECT_THROW(decode_record("{\"seq\":3,\"type\":\"admitted\"}"),
               JournalError);
}

TEST(JournalRecordTest, WrongSchemaAndTypesAreRejected) {
  EXPECT_THROW(decode_record("not json at all"), JournalError);
  EXPECT_THROW(decode_record("[1,2,3]"), JournalError);
  EXPECT_THROW(decode_record("{\"seq\":1,\"round\":0}"), JournalError);
  EXPECT_THROW(
      decode_record(
          "{\"seq\":1,\"type\":\"no-such-type\",\"round\":0}"),
      JournalError);
  EXPECT_THROW(
      decode_record("{\"seq\":1,\"type\":\"board-death\",\"round\":0,"
                    "\"board\":\"one\"}"),
      JournalError);
  EXPECT_THROW(
      decode_record("{\"seq\":-1,\"type\":\"board-death\",\"round\":0,"
                    "\"board\":1}"),
      JournalError);
}

TEST(JournalRecordTest, IntegersOutOfRangeAreRejected) {
  const auto requeued = [](const std::string& failures) {
    return "{\"seq\":4,\"type\":\"requeued\",\"round\":2,\"job\":1,"
           "\"reason\":\"retry\",\"requeues\":0,\"failures\":" +
           failures + ",\"hold_until\":3}";
  };
  EXPECT_EQ(decode_record(requeued("2")).failures, 2);
  for (const char* v : {"4294967297", "-2147483649", "1e300"}) {
    EXPECT_THROW(decode_record(requeued(v)), JournalError) << v;
  }
  const auto board_death = [](const std::string& seq,
                              const std::string& board) {
    return "{\"seq\":" + seq + ",\"type\":\"board-death\",\"round\":0," +
           "\"board\":" + board + "}";
  };
  EXPECT_THROW(decode_record(board_death("-1", "1")), JournalError);
  EXPECT_THROW(decode_record(board_death("18446744073709551616", "1")),
               JournalError);
  EXPECT_THROW(decode_record(board_death("1", "1e300")), JournalError);

  // A 32-bit spec field: seed 2^32 + 1 must not come back as seed 1.
  JournalRecord rec;
  rec.seq = 2;
  rec.type = JournalRecordType::kSubmitted;
  rec.job = 1;
  rec.spec = demo_spec();
  std::string line = encode_record(rec);
  const std::string seed = "\"seed\":42";
  ASSERT_NE(line.find(seed), std::string::npos);
  line.replace(line.find(seed), seed.size(), "\"seed\":4294967297");
  EXPECT_THROW(decode_record(line), JournalError);
}

TEST(JournalRecordTest, RunTagFingerprintsTheDynamics) {
  const JobSpec a = demo_spec();
  JobSpec b = a;
  EXPECT_EQ(job_run_tag(a), job_run_tag(b));
  b.seed = 43;
  EXPECT_NE(job_run_tag(a), job_run_tag(b));
  b = a;
  b.boards = 1;  // lease size shapes the BFP pipeline: part of the key
  EXPECT_NE(job_run_tag(a), job_run_tag(b));
}

class JournalFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test case: ctest -j runs cases concurrently and a shared
    // directory races SetUp's remove_all against a sibling's journal writes.
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           (std::string("g6_journal_") + info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    path_ = (dir_ / "serve.wal").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  void spit(const std::string& text) {
    std::ofstream os(path_, std::ios::trunc);
    os << text;
  }

  std::string open_line(std::uint64_t seq = 1) {
    JournalRecord rec;
    rec.seq = seq;
    rec.type = JournalRecordType::kOpen;
    rec.config = demo_config();
    return encode_record(rec);
  }

  std::string admitted_line(std::uint64_t seq, JobId job) {
    JournalRecord rec;
    rec.seq = seq;
    rec.type = JournalRecordType::kAdmitted;
    rec.job = job;
    return encode_record(rec);
  }

  fs::path dir_;
  std::string path_;
};

TEST_F(JournalFileTest, AppendAndReplayRoundTrip) {
  {
    Journal j(path_, /*truncate=*/true);
    JournalRecord open;
    open.type = JournalRecordType::kOpen;
    open.config = demo_config();
    j.append(open);
    JournalRecord sub;
    sub.type = JournalRecordType::kSubmitted;
    sub.job = 1;
    sub.spec = demo_spec();
    j.append(sub);
    JournalRecord adm;
    adm.type = JournalRecordType::kAdmitted;
    adm.job = 1;
    j.append(adm);
    EXPECT_EQ(j.next_seq(), 4u);
  }
  const JournalReplay replay = replay_journal(path_);
  EXPECT_FALSE(replay.torn_tail);
  ASSERT_EQ(replay.records.size(), 3u);
  EXPECT_EQ(replay.records[0].type, JournalRecordType::kOpen);
  EXPECT_EQ(replay.records[1].spec.name, "cluster-a");
  EXPECT_EQ(replay.records[2].job, 1u);
}

TEST_F(JournalFileTest, AppendModeContinuesSequence) {
  {
    Journal j(path_, /*truncate=*/true);
    JournalRecord open;
    open.type = JournalRecordType::kOpen;
    open.config = demo_config();
    j.append(open);
  }
  {
    Journal j(path_, /*truncate=*/false, /*start_seq=*/2);
    JournalRecord rec;
    rec.type = JournalRecordType::kRecovered;
    rec.records = 1;
    j.append(rec);
  }
  const JournalReplay replay = replay_journal(path_);
  ASSERT_EQ(replay.records.size(), 2u);
  EXPECT_EQ(replay.records[1].type, JournalRecordType::kRecovered);
  EXPECT_EQ(replay.records[1].records, 1u);
}

TEST_F(JournalFileTest, U64AboveTwoToThe53SurvivesReplayExactly) {
  // A double holds integers exactly only up to 2^53; 2^64 - 1 read as
  // one rounds to 2^64 and is refused, which would strand the service.
  JournalRecord sub;
  sub.seq = 2;
  sub.type = JournalRecordType::kSubmitted;
  sub.job = 1;
  sub.spec = demo_spec();
  sub.spec.deadline_rounds = std::numeric_limits<std::uint64_t>::max();
  sub.spec.seed = 4294967295u;
  EXPECT_EQ(decode_record(encode_record(sub)).spec.deadline_rounds,
            std::numeric_limits<std::uint64_t>::max());

  JournalRecord death;
  death.seq = 3;
  death.type = JournalRecordType::kBoardDeath;
  death.round = (std::uint64_t{1} << 53) + 1;
  spit(open_line() + "\n" + encode_record(sub) + "\n" +
       encode_record(death) + "\n");
  const JournalReplay replay = replay_journal(path_);
  ASSERT_EQ(replay.records.size(), 3u);
  EXPECT_EQ(replay.records[1].spec.deadline_rounds,
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(replay.records[1].spec.seed, 4294967295u);
  EXPECT_EQ(replay.records[2].round, (std::uint64_t{1} << 53) + 1);
}

TEST_F(JournalFileTest, TornTailIsDroppedAndFlagged) {
  spit(open_line() + "\n" + admitted_line(2, 1) + "\n" +
       "{\"seq\":3,\"type\":\"fini");  // kill -9 mid-append
  const JournalReplay replay = replay_journal(path_);
  EXPECT_TRUE(replay.torn_tail);
  EXPECT_EQ(replay.records.size(), 2u);
}

TEST_F(JournalFileTest, CompleteMalformedLineIsFatal) {
  // A torn TAIL is the only tolerated damage; a malformed line followed
  // by a newline means real corruption — refuse to recover from it.
  spit(open_line() + "\n" + "{\"seq\":2,\"type\":\"fini\n");
  EXPECT_THROW(replay_journal(path_), JournalError);
}

TEST_F(JournalFileTest, NonConsecutiveSequenceIsFatal) {
  spit(open_line() + "\n" + admitted_line(3, 1) + "\n");
  EXPECT_THROW(replay_journal(path_), JournalError);
}

TEST_F(JournalFileTest, FirstRecordMustBeOpen) {
  spit(admitted_line(1, 1) + "\n");
  EXPECT_THROW(replay_journal(path_), JournalError);
}

TEST_F(JournalFileTest, DuplicateOpenIsFatal) {
  spit(open_line(1) + "\n" + open_line(2) + "\n");
  EXPECT_THROW(replay_journal(path_), JournalError);
}

TEST_F(JournalFileTest, MissingEmptyAndTornOpenJournalsAreFatal) {
  EXPECT_THROW(replay_journal((dir_ / "nope.wal").string()), JournalError);
  spit("");
  EXPECT_THROW(replay_journal(path_), JournalError);
  spit("{\"seq\":1,\"type\":\"open\"");  // torn before the only newline
  EXPECT_THROW(replay_journal(path_), JournalError);
}

}  // namespace
}  // namespace g6::serve
