// Crash recovery: the journal + checkpoint machinery must make a killed
// service resumable with NOTHING lost — every job reaches exactly one
// terminal state, and every completed job's final particle state is
// bit-identical to the run that was never interrupted. run_rounds(k)
// simulates the crash at an exact round boundary in-process (the kill -9
// variant is the serve_recovery_* modes of scripts/serve_check.py);
// abandoning the Scheduler without drain() mimics the dead process,
// because the journal is fsync'd ahead of every transition.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "serve/journal.hpp"
#include "serve/scheduler.hpp"
#include "serve/service.hpp"

namespace g6::serve {
namespace {

namespace fs = std::filesystem;

MachineConfig tiny_machine(std::size_t boards) {
  MachineConfig mc;
  mc.boards_per_host = boards;
  mc.hosts_per_cluster = 1;
  mc.clusters = 1;
  return mc;
}

JobSpec small_job(const std::string& name, unsigned seed,
                  std::size_t boards = 1) {
  JobSpec s;
  s.name = name;
  s.model = "plummer";
  s.n = 48;
  s.t_end = 0.0625;
  s.seed = seed;
  s.boards = boards;
  return s;
}

std::string read_file(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

void write_file(const fs::path& path, const std::string& content) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << content;
}

bool is_terminal(JobState s) {
  return s != JobState::kQueued && s != JobState::kRunning;
}

/// Terminal records (finished/failed/quarantined/rejected) per job id in
/// the journal at `path`: exactly-once delivery means one each.
std::map<JobId, int> terminal_records(const std::string& path) {
  std::map<JobId, int> out;
  for (const JournalRecord& rec : replay_journal(path).records) {
    switch (rec.type) {
      case JournalRecordType::kFinished:
      case JournalRecordType::kFailed:
      case JournalRecordType::kQuarantined:
      case JournalRecordType::kRejected:
        ++out[rec.job];
        break;
      default:
        break;
    }
  }
  return out;
}

void expect_bit_identical(const ParticleSet& a, const ParticleSet& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (int k = 0; k < 3; ++k) {
      ASSERT_EQ(a[i].pos[k], b[i].pos[k]) << "pos, particle " << i;
      ASSERT_EQ(a[i].vel[k], b[i].vel[k]) << "vel, particle " << i;
    }
    ASSERT_EQ(a[i].mass, b[i].mass) << "mass, particle " << i;
  }
}

class ServeRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test case: ctest -j runs cases concurrently and a shared
    // directory races SetUp's remove_all against a sibling's journal writes.
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           (std::string("g6_serve_recovery_") + info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_ / "ckpts");
  }
  void TearDown() override { fs::remove_all(dir_); }

  ServiceConfig durable_config(std::size_t boards = 2) {
    ServiceConfig cfg;
    cfg.machine = tiny_machine(boards);
    cfg.quantum_blocksteps = 4;  // several quanta per job
    cfg.durability.journal_path = (dir_ / "serve.wal").string();
    cfg.durability.checkpoint_dir = (dir_ / "ckpts").string();
    cfg.durability.checkpoint_every_quanta = 1;
    return cfg;
  }

  /// The same jobs through a NON-durable scheduler, never interrupted:
  /// the reference trajectory recovery must land on bit for bit.
  std::vector<ParticleSet> reference_run(const std::vector<JobSpec>& jobs,
                                         ServiceConfig cfg) {
    cfg.durability = DurabilityConfig{};
    Scheduler ref(cfg);
    std::vector<JobId> ids;
    for (const JobSpec& s : jobs) {
      const SubmitResult r = ref.submit(s);
      EXPECT_TRUE(r.accepted) << s.name;
      ids.push_back(r.id);
    }
    ref.run_until_drained();
    std::vector<ParticleSet> out;
    for (const JobId id : ids) {
      EXPECT_EQ(ref.state(id), JobState::kCompleted);
      double t = 0.0;
      out.push_back(ref.final_state(id, &t));
    }
    return out;
  }

  fs::path dir_;
};

TEST_F(ServeRecoveryTest, CrashMidFlightRecoversBitIdentically) {
  const std::vector<JobSpec> jobs = {small_job("a", 11), small_job("b", 22),
                                     small_job("c", 33, 2)};
  const ServiceConfig cfg = durable_config();
  const std::vector<ParticleSet> want = reference_run(jobs, cfg);

  {
    Scheduler sched(cfg);
    for (const JobSpec& s : jobs) ASSERT_TRUE(sched.submit(s).accepted);
    // "Crash" two rounds in: jobs are mid-flight, checkpoints and the
    // journal are on disk, and the Scheduler is abandoned un-drained.
    ASSERT_TRUE(sched.run_rounds(2)) << "crash point must be mid-flight";
  }

  RecoveryInfo info;
  auto service =
      GrapeService::recover(cfg.durability.journal_path, &info);
  EXPECT_GT(info.journal_records, 3u);
  EXPECT_FALSE(info.torn_tail);
  EXPECT_EQ(info.jobs_restored + info.jobs_already_terminal, 3u);
  service->run_until_drained();

  const std::vector<JobId> ids = service->jobs();
  ASSERT_EQ(ids.size(), 3u);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_EQ(service->state(ids[i]), JobState::kCompleted) << jobs[i].name;
    double t = 0.0;
    expect_bit_identical(service->final_state(ids[i], &t), want[i]);
  }
  // Exactly-once terminal accounting across the crash.
  EXPECT_EQ(service->stats().completed, 3u);
  EXPECT_EQ(service->stats().failed, 0u);
  EXPECT_EQ(service->stats().submitted, 3u);
}

TEST_F(ServeRecoveryTest, EveryCrashPointRecoversBitIdentically) {
  // Crash after every journal record, once cleanly and once mid-append
  // (a torn fragment of the next record): recovery must be a no-op
  // detour at each of them. The jobs cover every transition the journal
  // records: an autoscaled lease, a scheduled board death, a job that
  // faults and retries, a poison job and a deadline job.

  // Starts on two boards and shrinks to one for the queued jobs.
  JobSpec scaled = small_job("scaled", 6, 2);
  scaled.boards_min = 1;
  scaled.boards_max = 2;
  JobSpec flaky = small_job("flaky", 7);
  flaky.chaos_fail_quanta = 1;
  JobSpec poison = small_job("poison", 8);
  poison.chaos_fail_quanta = 100;
  JobSpec doomed = small_job("doomed", 9);
  doomed.t_end = 1.0;
  doomed.deadline_rounds = 3;
  const std::vector<JobSpec> jobs = {small_job("plain", 5), scaled, flaky,
                                     poison, doomed};
  ServiceConfig cfg = durable_config(3);
  cfg.quantum_blocksteps = 16;
  cfg.board_deaths.push_back({1, 0});

  // Reference: the same service, never interrupted.
  std::vector<JobState> want_state;
  std::vector<ParticleSet> want;
  {
    ServiceConfig ref_cfg = cfg;
    ref_cfg.durability = DurabilityConfig{};
    Scheduler ref(ref_cfg);
    for (const JobSpec& s : jobs) ASSERT_TRUE(ref.submit(s).accepted);
    ref.run_until_drained();
    for (JobId id = 1; id <= jobs.size(); ++id) {
      want_state.push_back(ref.state(id));
      double t = 0.0;
      want.push_back(want_state.back() == JobState::kCompleted
                         ? ref.final_state(id, &t)
                         : ParticleSet{});
    }
  }
  ASSERT_EQ(want_state[0], JobState::kCompleted);
  ASSERT_EQ(want_state[3], JobState::kQuarantined);
  ASSERT_EQ(want_state[4], JobState::kFailed);

  // The durable run, one round at a time; after the submissions and
  // after every round, keep the journal length and a copy of the
  // checkpoint dir as they stood.
  const fs::path wal = cfg.durability.journal_path;
  const fs::path ckpts = cfg.durability.checkpoint_dir;
  const auto snap_dir = [this](std::size_t i) {
    return dir_ / ("snap" + std::to_string(i));
  };
  std::vector<std::size_t> snap_bytes;
  const auto snapshot = [&] {
    fs::copy(ckpts, snap_dir(snap_bytes.size()), fs::copy_options::recursive);
    snap_bytes.push_back(fs::file_size(wal));
  };
  {
    Scheduler sched(cfg);
    for (const JobSpec& s : jobs) ASSERT_TRUE(sched.submit(s).accepted);
    snapshot();
    while (sched.run_rounds(1)) snapshot();
    snapshot();
  }
  const std::string journal = read_file(wal);
  std::vector<std::size_t> ends;  // byte end of record k at ends[k - 1]
  for (std::size_t p = journal.find('\n'); p != std::string::npos;
       p = journal.find('\n', p + 1)) {
    ends.push_back(p + 1);
  }
  {
    std::map<JournalRecordType, int> seen;
    for (const JournalRecord& rec : replay_journal(wal.string()).records) {
      ++seen[rec.type];
    }
    for (const JournalRecordType t :
         {JournalRecordType::kLeaseResized, JournalRecordType::kBoardDeath,
          JournalRecordType::kRequeued, JournalRecordType::kQuarantined,
          JournalRecordType::kFailed, JournalRecordType::kCheckpointed,
          JournalRecordType::kFinished}) {
      ASSERT_GT(seen[t], 0) << "the sweep never crosses a '"
                            << journal_record_type_name(t) << "' record";
    }
  }

  for (std::size_t k = 1; k <= ends.size(); ++k) {
    // The checkpoint dir as it stood at the end of record k's round.
    std::size_t snap = 0;
    while (snap_bytes[snap] < ends[k - 1]) ++snap;
    for (const bool torn : {false, true}) {
      if (torn && k == ends.size()) continue;
      SCOPED_TRACE("crash after record " + std::to_string(k) +
                   (torn ? " + torn fragment" : ""));
      std::string prefix = journal.substr(0, ends[k - 1]);
      if (torn) prefix += journal.substr(ends[k - 1], 20);
      write_file(wal, prefix);
      fs::remove_all(ckpts);
      fs::copy(snap_dir(snap), ckpts, fs::copy_options::recursive);

      RecoveryInfo info;
      auto service = GrapeService::recover(wal.string(), &info);
      EXPECT_EQ(info.torn_tail, torn);
      EXPECT_EQ(info.journal_records, k);
      // A client that never saw its submission acknowledged sends it
      // again.
      for (std::size_t i = service->jobs().size(); i < jobs.size(); ++i) {
        ASSERT_TRUE(service->submit(jobs[i]).accepted);
      }
      service->run_until_drained();
      for (JobId id = 1; id <= jobs.size(); ++id) {
        ASSERT_EQ(service->state(id), want_state[id - 1])
            << jobs[id - 1].name;
        if (want_state[id - 1] != JobState::kCompleted) continue;
        double t = 0.0;
        expect_bit_identical(service->final_state(id, &t), want[id - 1]);
      }
      service.reset();
      const std::map<JobId, int> terminal = terminal_records(wal.string());
      ASSERT_EQ(terminal.size(), jobs.size());
      for (const auto& [id, n] : terminal) EXPECT_EQ(n, 1) << "job " << id;

      // The journal a recovery leaves behind recovers again.
      RecoveryInfo again_info;
      auto again = GrapeService::recover(wal.string(), &again_info);
      EXPECT_FALSE(again_info.torn_tail);
      EXPECT_EQ(again_info.jobs_restored, 0u);
      for (JobId id = 1; id <= jobs.size(); ++id) {
        ASSERT_EQ(again->state(id), want_state[id - 1]);
        if (want_state[id - 1] != JobState::kCompleted) continue;
        double t = 0.0;
        expect_bit_identical(again->final_state(id, &t), want[id - 1]);
      }
    }
  }
}

TEST_F(ServeRecoveryTest, FiredBoardDeathIsNotReplayed) {
  // Board 0 dies at round 1; the crash happens after. Recovery must
  // remember the death (the board stays dead, the death never re-fires)
  // and still finish every job bit-identically.
  const std::vector<JobSpec> jobs = {small_job("d1", 7), small_job("d2", 8)};
  ServiceConfig cfg = durable_config(3);
  cfg.board_deaths.push_back({1, 0});
  const std::vector<ParticleSet> want = reference_run(jobs, cfg);

  {
    Scheduler sched(cfg);
    for (const JobSpec& s : jobs) ASSERT_TRUE(sched.submit(s).accepted);
    ASSERT_TRUE(sched.run_rounds(2));  // death at round 1 has fired
  }
  const auto board_deaths = [&cfg] {
    std::vector<std::size_t> boards;
    for (const JournalRecord& rec :
         replay_journal(cfg.durability.journal_path).records) {
      if (rec.type == JournalRecordType::kBoardDeath) {
        boards.push_back(rec.board);
      }
    }
    return boards;
  };
  ASSERT_EQ(board_deaths(), std::vector<std::size_t>{0});
  auto resumed = GrapeService::recover(cfg.durability.journal_path);
  EXPECT_EQ(resumed->healthy_boards(), 2u);
  EXPECT_EQ(resumed->stats().boards_dead, 1u);
  resumed->run_until_drained();
  EXPECT_EQ(resumed->stats().boards_dead, 1u);
  // The death stayed fired: the resumed run journaled none of its own.
  EXPECT_EQ(board_deaths(), std::vector<std::size_t>{0});

  const std::vector<JobId> ids = resumed->jobs();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_EQ(resumed->state(ids[i]), JobState::kCompleted);
    double t = 0.0;
    expect_bit_identical(resumed->final_state(ids[i], &t), want[i]);
  }
}

TEST_F(ServeRecoveryTest, RecoveryAfterCompletionReconstructsResults) {
  // Crash after the run finished: everything is terminal in the journal.
  // Completed results must still be reconstructable (from the final
  // checkpoints) so snapshots can be re-written byte-identically.
  const std::vector<JobSpec> jobs = {small_job("done", 17)};
  const ServiceConfig cfg = durable_config();
  const std::vector<ParticleSet> want = reference_run(jobs, cfg);

  {
    Scheduler sched(cfg);
    ASSERT_TRUE(sched.submit(jobs[0]).accepted);
    sched.run_until_drained();
  }
  RecoveryInfo info;
  auto service = GrapeService::recover(cfg.durability.journal_path, &info);
  EXPECT_EQ(info.jobs_restored, 0u);
  EXPECT_EQ(info.jobs_already_terminal, 1u);
  service->run_until_drained();  // nothing to do; must be a no-op
  const std::vector<JobId> ids = service->jobs();
  ASSERT_EQ(ids.size(), 1u);
  ASSERT_EQ(service->state(ids[0]), JobState::kCompleted);
  double t = 0.0;
  expect_bit_identical(service->final_state(ids[0], &t), want[0]);
  EXPECT_EQ(service->stats().completed, 1u);  // exactly once, not twice
}

TEST_F(ServeRecoveryTest, TornTailIsDroppedAndRecoveryProceeds) {
  const ServiceConfig cfg = durable_config();
  {
    Scheduler sched(cfg);
    ASSERT_TRUE(sched.submit(small_job("torn", 3)).accepted);
    sched.run_rounds(1);
  }
  {  // kill -9 mid-append: an unterminated fragment after valid records
    std::ofstream os(cfg.durability.journal_path,
                     std::ios::app | std::ios::binary);
    os << "{\"seq\":99,\"type\":\"quan";
  }
  RecoveryInfo info;
  auto service = GrapeService::recover(cfg.durability.journal_path, &info);
  EXPECT_TRUE(info.torn_tail);
  service->run_until_drained();
  EXPECT_EQ(service->stats().completed, 1u);
  service.reset();

  // The fragment was cut before the journal continued, so the journal
  // this recovery leaves behind recovers again.
  RecoveryInfo again_info;
  auto again =
      GrapeService::recover(cfg.durability.journal_path, &again_info);
  EXPECT_FALSE(again_info.torn_tail);
  EXPECT_EQ(again_info.jobs_already_terminal, 1u);
  EXPECT_EQ(again->stats().completed, 1u);
}

TEST_F(ServeRecoveryTest, MalformedJournalIsRejected) {
  const ServiceConfig cfg = durable_config();
  {
    Scheduler sched(cfg);
    ASSERT_TRUE(sched.submit(small_job("ok", 4)).accepted);
    sched.run_rounds(1);
  }
  {  // a COMPLETE malformed line is corruption, not a torn tail
    std::ofstream os(cfg.durability.journal_path,
                     std::ios::app | std::ios::binary);
    os << "{\"seq\":99,\"type\":\"quantum\",\"bogus\":true}\n";
  }
  EXPECT_THROW(GrapeService::recover(cfg.durability.journal_path),
               JournalError);
}

TEST_F(ServeRecoveryTest, CheckpointTagMismatchIsRejected) {
  // A checkpoint whose run_tag does not match the journaled spec must be
  // refused for completed jobs (their results cannot be rebuilt any
  // other way) rather than silently resuming a different run.
  const ServiceConfig cfg = durable_config();
  {
    Scheduler sched(cfg);
    ASSERT_TRUE(sched.submit(small_job("tagged", 21)).accepted);
    sched.run_until_drained();
    ASSERT_EQ(sched.state(1), JobState::kCompleted);
  }
  // Overwrite the job's checkpoint (both generations) with one from a
  // DIFFERENT spec.
  const ServiceConfig cfg2 = [&] {
    ServiceConfig c = durable_config();
    c.durability.journal_path = (dir_ / "other.wal").string();
    return c;
  }();
  {
    Scheduler other(cfg2);
    ASSERT_TRUE(other.submit(small_job("impostor", 99)).accepted);
    other.run_until_drained();
  }
  fs::copy_file(dir_ / "ckpts" / "impostor.ckpt",
                dir_ / "ckpts" / "tagged.ckpt",
                fs::copy_options::overwrite_existing);
  fs::remove(dir_ / "ckpts" / "tagged.ckpt.prev");
  EXPECT_THROW(GrapeService::recover(cfg.durability.journal_path),
               JournalError);
}

TEST_F(ServeRecoveryTest, LiveJobWithLostCheckpointRerunsFromScratch) {
  // For a LIVE job a corrupt checkpoint is not fatal: recovery warns and
  // re-runs from scratch — slower, still bit-identical.
  const std::vector<JobSpec> jobs = {small_job("lost", 31)};
  const ServiceConfig cfg = durable_config();
  const std::vector<ParticleSet> want = reference_run(jobs, cfg);
  {
    Scheduler sched(cfg);
    ASSERT_TRUE(sched.submit(jobs[0]).accepted);
    ASSERT_TRUE(sched.run_rounds(2));
  }
  {  // corrupt both generations of its checkpoint
    std::ofstream os(dir_ / "ckpts" / "lost.ckpt", std::ios::trunc);
    os << "garbage";
  }
  fs::remove(dir_ / "ckpts" / "lost.ckpt.prev");
  RecoveryInfo info;
  auto service = GrapeService::recover(cfg.durability.journal_path, &info);
  EXPECT_EQ(info.jobs_restored, 1u);
  EXPECT_EQ(info.jobs_resumed_from_checkpoint, 0u);
  service->run_until_drained();
  ASSERT_EQ(service->state(service->jobs()[0]), JobState::kCompleted);
  double t = 0.0;
  expect_bit_identical(service->final_state(service->jobs()[0], &t),
                       want[0]);
}

TEST_F(ServeRecoveryTest, LeaseResizeSurvivesCrashBitIdentically) {
  // An autoscaling job (1..2 boards) next to a plain one on a 2-board
  // machine: when the plain job finishes, the freed board grows the
  // lease between quanta, appending a lease-resized journal record.
  // Crash right after the first resize; replay must rebuild boards_now
  // and the resize count exactly (the resumed pipeline keeps the
  // autoscaled shape), and the resumed run must land bit-identically
  // on the never-interrupted reference.
  JobSpec scaled = small_job("scaled", 51);
  scaled.t_end = 0.125;  // outlives the plain job: a board frees up
  scaled.boards_min = 1;
  scaled.boards_max = 2;
  const std::vector<JobSpec> jobs = {scaled, small_job("plain", 52)};
  const ServiceConfig cfg = durable_config(2);
  const std::vector<ParticleSet> want = reference_run(jobs, cfg);

  std::uint64_t resizes_at_crash = 0;
  std::size_t boards_at_crash = 0;
  {
    Scheduler sched(cfg);
    for (const JobSpec& s : jobs) ASSERT_TRUE(sched.submit(s).accepted);
    bool live = true;
    while (live && sched.report(1).resizes == 0) live = sched.run_rounds(1);
    ASSERT_TRUE(live) << "scaled job finished before any resize fired";
    resizes_at_crash = sched.report(1).resizes;
    boards_at_crash = sched.report(1).boards_now;
    ASSERT_GE(resizes_at_crash, 1u);
    EXPECT_EQ(boards_at_crash, 2u);  // grew into the freed board
  }  // abandoned un-drained: the crash

  auto resumed = GrapeService::recover(cfg.durability.journal_path);
  ASSERT_EQ(resumed->jobs().size(), 2u);
  EXPECT_EQ(resumed->report(1).resizes, resizes_at_crash);
  EXPECT_EQ(resumed->report(1).boards_now, boards_at_crash);

  resumed->run_until_drained();
  const std::vector<JobId> ids = resumed->jobs();
  ASSERT_EQ(ids.size(), 2u);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_EQ(resumed->state(ids[i]), JobState::kCompleted) << jobs[i].name;
    double t = 0.0;
    expect_bit_identical(resumed->final_state(ids[i], &t), want[i]);
  }
  EXPECT_GE(resumed->report(ids[0]).resizes, resizes_at_crash);
}

TEST_F(ServeRecoveryTest, LiveAndReplayedReportsMatch) {
  // One state machine: replaying a drained run's whole journal must land
  // every journaled report field exactly where the live run left it, for
  // every way a job can end — completed, failed on its deadline,
  // rejected as a duplicate, quarantined, and re-queued by a board death.
  ServiceConfig cfg = durable_config(3);
  cfg.board_deaths.push_back({1, 0});  // revokes job 1's round-0 lease
  JobSpec doomed = small_job("doomed", 62);
  doomed.t_end = 1.0;
  doomed.deadline_rounds = 2;
  JobSpec poison = small_job("poison", 63);
  poison.chaos_fail_quanta = 100;
  const std::vector<JobSpec> jobs = {small_job("moved", 61), doomed,
                                     small_job("moved", 64), poison,
                                     small_job("plain", 65)};

  std::vector<JobReport> live;
  {
    Scheduler sched(cfg);
    for (const JobSpec& s : jobs) sched.submit(s);
    sched.run_until_drained();
    for (const JobId id : sched.all_jobs()) live.push_back(sched.report(id));
  }
  ASSERT_EQ(live.size(), jobs.size());
  EXPECT_EQ(live[0].state, JobState::kCompleted);
  EXPECT_EQ(live[0].requeues, 1);
  EXPECT_EQ(live[1].state, JobState::kFailed);
  EXPECT_EQ(live[1].reject_reason, RejectReason::kDeadlineExceeded);
  EXPECT_EQ(live[2].state, JobState::kRejected);
  EXPECT_EQ(live[3].state, JobState::kQuarantined);
  EXPECT_EQ(live[4].state, JobState::kCompleted);

  auto replayed = GrapeService::recover(cfg.durability.journal_path);
  ASSERT_EQ(replayed->jobs().size(), jobs.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    const JobReport& a = live[i];
    const JobReport b = replayed->report(a.id);
    SCOPED_TRACE(a.name + " (job " + std::to_string(a.id) + ")");
    EXPECT_EQ(b.state, a.state);
    EXPECT_EQ(b.reject_reason, a.reject_reason);
    EXPECT_EQ(b.message, a.message);
    EXPECT_EQ(b.quanta, a.quanta);
    EXPECT_EQ(b.t_reached, a.t_reached);
    EXPECT_EQ(b.steps, a.steps);
    EXPECT_EQ(b.blocksteps, a.blocksteps);
    EXPECT_EQ(b.requeues, a.requeues);
    EXPECT_EQ(b.failures, a.failures);
    EXPECT_EQ(b.boards_now, a.boards_now);
    EXPECT_EQ(b.resizes, a.resizes);
    EXPECT_EQ(b.e0, a.e0);
    EXPECT_EQ(b.e_final, a.e_final);
  }
}

TEST_F(ServeRecoveryTest, SigtermDrainCheckpointsAndResumes) {
  const std::vector<JobSpec> jobs = {small_job("s1", 41), small_job("s2", 42)};
  ServiceConfig cfg = durable_config();
  const std::vector<ParticleSet> want = reference_run(jobs, cfg);

  std::atomic<bool> stop{true};  // raised before the first round: instant drain
  cfg.stop_flag = &stop;
  {
    Scheduler sched(cfg);
    for (const JobSpec& s : jobs) ASSERT_TRUE(sched.submit(s).accepted);
    sched.run_until_drained();  // returns early: graceful stop
    EXPECT_EQ(sched.stats().completed, 0u);
  }
  auto service = GrapeService::recover(cfg.durability.journal_path);
  service->run_until_drained();
  const std::vector<JobId> ids = service->jobs();
  ASSERT_EQ(ids.size(), 2u);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_EQ(service->state(ids[i]), JobState::kCompleted);
    double t = 0.0;
    expect_bit_identical(service->final_state(ids[i], &t), want[i]);
  }
}

}  // namespace
}  // namespace g6::serve
