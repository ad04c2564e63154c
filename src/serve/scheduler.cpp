#include "serve/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "exec/thread_pool.hpp"
#include "fault/checkpoint.hpp"
#include "util/errors.hpp"
#include "nbody/diagnostics.hpp"
#include "obs/clock.hpp"
#include "obs/context.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/sampler.hpp"
#include "util/check.hpp"
#include "util/fileio.hpp"

namespace g6::serve {

namespace {

obs::MetricsRegistry& reg() { return obs::MetricsRegistry::global(); }

obs::FlightRecorder& flight() { return obs::FlightRecorder::global(); }

/// Register the serving instruments the time-series sampler tracks.
/// Idempotent, so every Scheduler (serve_throughput builds several per
/// process) converges on the same instrument set.
void track_sampler_instruments() {
  obs::MetricsSampler& s = obs::MetricsSampler::global();
  s.track_gauge("serve.queue.depth");
  s.track_gauge("serve.lease.utilization");
  s.track_gauge("serve.boards.healthy");
  s.track_gauge("serve.boards.free");
  s.track_gauge("serve.boards.dead");
  s.track_gauge("fault.healthy_chips");
  s.track_counter("serve.jobs.completed");
  s.track_counter("serve.quanta");
  s.track_counter("serve.preemptions");
  s.track_counter("serve.revocations");
  s.track_counter("serve.requeues");
  s.track_counter("serve.lease.resizes");
  s.track_counter("serve.board_deaths");
  s.track_counter("serve.journal.records");
  s.track_counter("serve.checkpoint.writes");
}

RejectReason reject_reason_from_name(const std::string& name) {
  for (int v = 0; v <= static_cast<int>(RejectReason::kQuarantined); ++v) {
    const auto r = static_cast<RejectReason>(v);
    if (name == reject_reason_name(r)) return r;
  }
  throw JournalError("journal: unknown reject reason '" + name + "'");
}

}  // namespace

Scheduler::Scheduler(ServiceConfig cfg)
    : cfg_(std::move(cfg)),
      admission_(cfg_.max_queue_depth, cfg_.pool_boards()),
      partition_(cfg_.pool_boards()),
      pending_deaths_(cfg_.board_deaths) {
  G6_REQUIRE_MSG(cfg_.quantum_blocksteps >= 1,
                 "quantum must be at least one blockstep");
  for (const BoardDeath& d : pending_deaths_) {
    G6_REQUIRE_MSG(d.board < cfg_.pool_boards(),
                   "board death schedule names a board outside the machine");
  }
  std::stable_sort(pending_deaths_.begin(), pending_deaths_.end(),
                   [](const BoardDeath& a, const BoardDeath& b) {
                     return a.round < b.round;
                   });
  track_sampler_instruments();
  if (cfg_.durability.enabled()) {
    // Completed jobs are reconstructed from their final checkpoint at
    // recovery; a journal without a checkpoint store could not honor
    // exactly-once terminal states for them.
    G6_REQUIRE_MSG(!cfg_.durability.checkpoint_dir.empty(),
                   "durable serving needs a checkpoint_dir alongside the "
                   "journal");
    MutexLock lk(serial_m_);
    journal_ = std::make_unique<Journal>(cfg_.durability.journal_path,
                                         /*truncate=*/true);
    JournalRecord jr;
    jr.type = JournalRecordType::kOpen;
    jr.config = cfg_;
    commit(std::move(jr));
  }
}

std::unique_ptr<Scheduler> Scheduler::recover(const std::string& journal_path,
                                              RecoveryInfo* info,
                                              std::atomic<bool>* stop_flag) {
  G6_PHASE("serve.recover");
  G6_REQUIRE_MSG(!journal_path.empty(), "empty journal path");
  const JournalReplay replay = replay_journal(journal_path);
  // The open record's config never carries the journal path, so this
  // scheduler starts without a journal: the replay below writes nothing
  // until resume_from reopens the file in append mode.
  ServiceConfig cfg = replay.records.front().config;
  cfg.stop_flag = stop_flag;
  auto s = std::make_unique<Scheduler>(std::move(cfg));
  MutexLock lk(s->serial_m_);
  for (std::size_t i = 1; i < replay.records.size(); ++i) {
    const JournalRecord& rec = replay.records[i];
    s->round_index_ = std::max(s->round_index_, rec.round);
    s->apply(rec);
  }
  s->resume_from(journal_path, replay, info);
  return s;
}

void Scheduler::resume_from(const std::string& journal_path,
                            const JournalReplay& replay, RecoveryInfo* info) {
  RecoveryInfo out;
  out.journal_records = replay.records.size();
  out.torn_tail = replay.torn_tail;
  out.resume_round = round_index_;
  stats_.rounds = round_index_;

  for (const auto& rp : records_) {
    Record& r = *rp;
    if (r.state == JobState::kQueued) {
      // Live (queued or running at the crash): back in the queue in id
      // order — the submission order — from its last checkpoint, if any.
      if (!r.checkpoint_file.empty()) load_checkpoint(r, /*required=*/false);
      queue_.push_back(r.id, r.spec.priority);
      ++out.jobs_restored;
      if (r.has_saved) ++out.jobs_resumed_from_checkpoint;
    } else {
      ++out.jobs_already_terminal;
    }
    if (r.state == JobState::kRejected) continue;
    r.scope = &obs::ScopeRegistry::global().get_or_create(
        "job:" + r.spec.name, r.id, priority_name(r.spec.priority));
    if (r.state == JobState::kCompleted) {
      // The final checkpoint is written (durably) before the finished
      // record, so a journaled completion always has one. Rebuilding the
      // runtime from it and interpolating to the current time is the
      // same computation finish_job ran, on the same bits.
      if (r.checkpoint_file.empty()) {
        throw JournalError("journal: completed job '" + r.spec.name +
                           "' has no checkpointed record");
      }
      load_checkpoint(r, /*required=*/true);
      const obs::ScopedMetricScope attribution(r.scope);
      const JobRuntime runtime(r.spec, cfg_.machine, r.spec.boards, r.saved);
      r.result = runtime.state_now();
      r.result_time = runtime.time();
    }
  }

  // Continue the journal where its last complete record ends: a torn
  // fragment left in place would glue itself to the next append.
  cfg_.durability.journal_path = journal_path;
  if (replay.torn_tail) {
    truncate_file_durable(journal_path, replay.complete_bytes);
  }
  journal_ = std::make_unique<Journal>(journal_path, /*truncate=*/false,
                                       replay.records.size() + 1);
  JournalRecord jr;
  jr.type = JournalRecordType::kRecovered;
  jr.records = out.journal_records;
  commit(std::move(jr));

  reg().counter("serve.recovery.runs").add();
  reg().counter("serve.recovery.records").add(out.journal_records);
  reg().counter("serve.recovery.jobs_restored").add(out.jobs_restored);
  reg()
      .counter("serve.recovery.resumed_from_checkpoint")
      .add(out.jobs_resumed_from_checkpoint);
  update_round_gauges();
  obs::log_info(
      "serve: recovered from %s: %llu records, %llu live job(s) restored "
      "(%llu from checkpoints), %llu already terminal, resuming at round "
      "%llu",
      journal_path.c_str(),
      static_cast<unsigned long long>(out.journal_records),
      static_cast<unsigned long long>(out.jobs_restored),
      static_cast<unsigned long long>(out.jobs_resumed_from_checkpoint),
      static_cast<unsigned long long>(out.jobs_already_terminal),
      static_cast<unsigned long long>(round_index_));
  if (info != nullptr) *info = out;
}

void Scheduler::load_checkpoint(Record& r, bool required) {
  bool used_prev = false;
  fault::RunCheckpoint cp;
  try {
    cp = fault::load_checkpoint_resilient(r.checkpoint_file, &used_prev);
  } catch (const fault::FaultError& e) {
    if (required) {
      throw JournalError("journal: completed job '" + r.spec.name +
                         "': " + e.what());
    }
    obs::log_warn(
        "serve: job '%s' checkpoint unusable (%s); will re-run from "
        "scratch",
        r.spec.name.c_str(), e.what());
    return;
  }
  const std::string expected = job_run_tag(r.spec);
  if (cp.run_tag != expected) {
    // A tag mismatch is not bit rot (the checksum passed) — the file
    // belongs to a different configuration. Refuse, like RunCheckpoint
    // resume does, rather than silently continuing a different run.
    throw JournalError("journal: job '" + r.spec.name +
                       "': checkpoint run_tag mismatch (file " +
                       r.checkpoint_file + " has '" + cp.run_tag +
                       "', expected '" + expected + "')");
  }
  if (used_prev) {
    obs::log_warn(
        "serve: job '%s' resumed from previous checkpoint generation "
        "(current was corrupt)",
        r.spec.name.c_str());
  }
  r.saved.state = std::move(cp.state);
  r.saved.exponents = std::move(cp.exponents);
  r.saved.e0 = cp.e0;
  r.has_saved = true;
}

Scheduler::~Scheduler() = default;

Scheduler::Record& Scheduler::rec(JobId id) {
  G6_REQUIRE(id >= 1 && id <= records_.size());
  return *records_[id - 1];
}

const Scheduler::Record& Scheduler::rec(JobId id) const {
  G6_REQUIRE(id >= 1 && id <= records_.size());
  return *records_[id - 1];
}

void Scheduler::commit(JournalRecord rec) {
  rec.round = round_index_;
  if (journal_ != nullptr) {
    journal_->append(rec);
    reg().counter("serve.journal.records").add();
  }
  apply(rec);
}

void Scheduler::apply(const JournalRecord& rec) {
  using T = JournalRecordType;
  switch (rec.type) {
    case T::kOpen:
    case T::kRecovered:
    case T::kDrained:
      return;
    case T::kBoardDeath: {
      // Dead hardware stays dead, and a scheduled death that fired must
      // not fire again. A leased board's job is revoked by the caller
      // (live) or was already treated as queued (replay).
      if (rec.board >= partition_.total()) {
        throw JournalError("journal: board-death record names board " +
                           std::to_string(rec.board) + " outside the " +
                           std::to_string(partition_.total()) +
                           "-board machine");
      }
      partition_.mark_dead(rec.board);
      stats_.boards_dead = partition_.dead();
      const auto fired = std::find_if(
          pending_deaths_.begin(), pending_deaths_.end(),
          [&rec](const BoardDeath& d) {
            return d.board == rec.board && d.round <= rec.round;
          });
      if (fired != pending_deaths_.end()) pending_deaths_.erase(fired);
      return;
    }
    case T::kSubmitted: {
      if (rec.job != records_.size() + 1) {
        throw JournalError("journal: submitted record for job " +
                           std::to_string(rec.job) + " out of order");
      }
      // A bare `submitted` (a crash before the admitted/rejected append)
      // counts as admitted: the client never saw a rejection, and a live
      // job is the only state that guarantees exactly-once terminal
      // delivery.
      auto r = std::make_unique<Record>();
      r->spec = rec.spec;
      r->id = rec.job;
      r->state = JobState::kQueued;
      r->submit_round = rec.round;
      r->boards_target = rec.spec.boards;
      r->submit_wall_s = obs::monotonic_seconds();
      records_.push_back(std::move(r));
      ++stats_.submitted;
      return;
    }
    default:
      break;
  }

  if (rec.job == 0 || rec.job > records_.size()) {
    throw JournalError("journal: record " + std::to_string(rec.seq) + " (" +
                       journal_record_type_name(rec.type) +
                       ") names unknown job " + std::to_string(rec.job));
  }
  Record& r = *records_[rec.job - 1];
  switch (rec.type) {
    case T::kAdmitted:  // already live since `submitted`
    case T::kStarted:   // running is live-only state
      break;
    case T::kRejected:
      r.state = JobState::kRejected;
      r.reject = reject_reason_from_name(rec.reason);
      r.message = rec.message;
      ++stats_.rejected;
      break;
    case T::kLeaseResized:
      // The job's next dispatch re-acquires this many boards, so a
      // resumed pipeline has the shape the crashed process ran with.
      r.boards_target = rec.boards;
      ++r.resizes;
      ++stats_.resizes;
      break;
    case T::kQuantum:
      r.quanta = rec.quanta;
      r.t_reached = rec.t;
      r.steps = rec.steps;
      r.blocksteps = rec.blocksteps;
      r.failures = 0;  // quarantine counts *consecutive* faulted quanta
      break;
    case T::kCheckpointed:
      // Only the last checkpoint is a resume candidate (earlier
      // generations were rotated away).
      r.checkpoint_file = rec.file;
      break;
    case T::kRequeued:
      r.state = JobState::kQueued;
      if (rec.reason == "revocation") ++stats_.requeues;
      r.requeues = rec.requeues;
      r.failures = rec.failures;
      r.hold_until_round = rec.hold_until;
      break;
    case T::kFinished:
      r.state = JobState::kCompleted;
      r.quanta = rec.quanta;
      r.t_reached = rec.t;
      r.steps = rec.steps;
      r.blocksteps = rec.blocksteps;
      r.e0 = rec.e0;
      r.e_final = rec.e_final;
      ++stats_.completed;
      break;
    case T::kFailed:
      r.state = JobState::kFailed;
      r.reject = reject_reason_from_name(rec.reason);
      r.message = rec.message;
      ++stats_.failed;
      break;
    case T::kQuarantined:
      r.state = JobState::kQuarantined;
      r.reject = RejectReason::kQuarantined;
      r.failures = rec.failures;
      r.message = "poison job: " + std::to_string(rec.failures) +
                  " consecutive transient faults";
      if (!rec.file.empty()) r.message += " (flight dump: " + rec.file + ")";
      ++stats_.quarantined;
      break;
    default:
      G6_REQUIRE_MSG(false, "unhandled journal record type");
  }
}

SubmitResult Scheduler::submit(const JobSpec& spec) {
  MutexLock lk(serial_m_);
  reg().counter("serve.jobs.submitted").add();
  const auto id = static_cast<JobId>(records_.size() + 1);
  {
    // Write-ahead: the submission (with its full spec) is durable before
    // the decision — recovery treats a bare `submitted` record (crash
    // between the two appends) as admitted, so the job still reaches a
    // terminal state exactly once.
    JournalRecord jr;
    jr.type = JournalRecordType::kSubmitted;
    jr.job = id;
    jr.spec = spec;
    commit(std::move(jr));
  }
  Record& r = rec(id);

  AdmissionDecision d = AdmissionDecision::yes();
  for (const auto& other : records_) {
    if (other->id != id && other->spec.name == spec.name) {
      d = AdmissionDecision::no(RejectReason::kInvalidSpec,
                                "duplicate job name '" + spec.name + "'");
      break;
    }
  }
  if (d.admit) {
    d = admission_.decide(spec, queue_.size(), partition_.healthy(),
                          draining_);
  }

  SubmitResult result;
  result.id = id;
  if (d.admit) {
    JournalRecord jr;
    jr.type = JournalRecordType::kAdmitted;
    jr.job = id;
    commit(std::move(jr));
    // One attribution scope per admitted job: every counter incremented
    // while this job's work runs — on any thread — lands in its ledger.
    r.scope = &obs::ScopeRegistry::global().get_or_create(
        "job:" + spec.name, id, priority_name(spec.priority));
    queue_.push_back(id, spec.priority);
    result.accepted = true;
    obs::log_debug("serve: job %llu '%s' queued (%s, %zu board(s))",
                   static_cast<unsigned long long>(id), spec.name.c_str(),
                   priority_name(spec.priority), spec.boards);
  } else {
    JournalRecord jr;
    jr.type = JournalRecordType::kRejected;
    jr.job = id;
    jr.reason = reject_reason_name(d.reason);
    jr.message = d.message;
    commit(std::move(jr));
    result.accepted = false;
    result.reason = d.reason;
    result.message = d.message;
    reg().counter("serve.jobs.rejected").add();
    obs::log_warn("serve: job '%s' rejected (%s): %s", spec.name.c_str(),
                  reject_reason_name(d.reason), d.message.c_str());
  }
  update_round_gauges();
  return result;
}

bool Scheduler::has_live_work() const {
  for (const auto& r : records_) {
    if (r->state == JobState::kQueued || r->state == JobState::kRunning) {
      return true;
    }
  }
  return false;
}

void Scheduler::run_until_drained() {
  MutexLock lk(serial_m_);
  const double start = obs::monotonic_seconds();
  bool stopped = false;
  while (has_live_work()) {
    if (cfg_.stop_flag != nullptr &&
        cfg_.stop_flag->load(std::memory_order_relaxed)) {
      graceful_stop();
      stopped = true;
      break;
    }
    round();
  }
  if (!stopped) {
    JournalRecord jr;
    jr.type = JournalRecordType::kDrained;
    jr.reason = "drained";
    commit(std::move(jr));
  }
  stats_.makespan_s += obs::monotonic_seconds() - start;
  stats_.boards_dead = partition_.dead();
}

bool Scheduler::run_rounds(std::uint64_t max_rounds) {
  MutexLock lk(serial_m_);
  for (std::uint64_t i = 0; i < max_rounds && has_live_work(); ++i) round();
  return has_live_work();
}

void Scheduler::round() {
  G6_PHASE("serve.round");
  ++stats_.rounds;
  reg().counter("serve.rounds").add();

  enforce_deadlines();
  apply_board_deaths();
  const JobId blocked = dispatch();

  std::vector<JobId> running;
  for (const auto& r : records_) {
    if (r->state == JobState::kRunning) running.push_back(r->id);
  }

  run_quanta(running);
  // Fold serially in job-id order so every counter, stat and state
  // transition is independent of which pool thread finished first.
  for (JobId id : running) fold_quantum(rec(id));

  if (blocked != 0 && rec(blocked).state == JobState::kQueued) {
    // Queue pressure, escalating: first shrink running autoscalable jobs
    // toward boards_min (they keep running, smaller), then preempt.
    shrink_for(blocked);
    preempt_for(blocked);
  }
  // Idle headroom flows back: with nothing queued, autoscalable jobs
  // grow toward boards_max between quanta.
  grow_leases();

  update_round_gauges();
  // One time-series row per round: a LOGICAL tick, so two identical runs
  // export the same number of rows (the round count is deterministic).
  obs::MetricsSampler::global().sample();
  ++round_index_;
}

void Scheduler::enforce_deadlines() {
  for (const auto& rp : records_) {
    Record& r = *rp;
    if (r.spec.deadline_rounds == 0) continue;
    if (r.state != JobState::kQueued && r.state != JobState::kRunning) {
      continue;
    }
    if (round_index_ < r.submit_round + r.spec.deadline_rounds) continue;
    // Deadlines are measured on the round clock (logical time): the same
    // journal replays to the same verdict, wall time never enters.
    if (r.state == JobState::kQueued) {
      queue_.remove(r.id);
    } else {
      release_lease(r);
      r.runtime.reset();
    }
    fail_job(r, RejectReason::kDeadlineExceeded,
             "deadline of " + std::to_string(r.spec.deadline_rounds) +
                 " round(s) exceeded (submitted at round " +
                 std::to_string(r.submit_round) + ", now round " +
                 std::to_string(round_index_) + ")");
  }
}

void Scheduler::apply_board_deaths() {
  while (!pending_deaths_.empty() &&
         pending_deaths_.front().round <= round_index_) {
    // apply() kills the board and retires this entry from the schedule.
    const BoardDeath death = pending_deaths_.front();
    const JobId victim = partition_.owner_of(death.board);
    JournalRecord jr;
    jr.type = JournalRecordType::kBoardDeath;
    jr.board = death.board;
    commit(std::move(jr));
    reg().counter("serve.board_deaths").add();
    obs::log_warn("serve: board %zu died at round %llu (%zu healthy left)",
                  death.board,
                  static_cast<unsigned long long>(round_index_),
                  partition_.healthy());
    flight().record(obs::FlightEventType::kBoardDeath, victim,
                    static_cast<std::int64_t>(death.board),
                    static_cast<std::int64_t>(round_index_));
    if (victim != 0) {
      revoke_lease(rec(victim),
                   "board " + std::to_string(death.board) + " died");
    }
  }
}

JobId Scheduler::dispatch() {
  JobId first_blocked = 0;
  for (JobId id : queue_.dispatch_order()) {
    Record& r = rec(id);
    // Retry backoff: the job sits out its hold window (it neither runs
    // nor drives preemption) and re-enters dispatch when it expires.
    if (r.hold_until_round > round_index_) continue;
    if (r.spec.min_boards() > partition_.healthy()) {
      // The machine shrank below even the smallest lease this job can
      // run with; it can never run.
      queue_.remove(id);
      fail_job(r, RejectReason::kBoardsUnavailable,
               "machine degraded below the job's board request (" +
                   std::to_string(r.spec.min_boards()) + " wanted, " +
                   std::to_string(partition_.healthy()) + " healthy)");
      continue;
    }
    // Ask for the job's current target lease, clamped to what the
    // machine still has healthy (a fixed-size job's target IS
    // spec.boards, so this is the pre-autoscaling behavior for it).
    const std::size_t desired =
        std::max(r.spec.min_boards(),
                 std::min(r.boards_target, partition_.healthy()));
    auto lease = partition_.acquire(id, desired);
    if (!lease && r.spec.autoscales() &&
        partition_.free() >= r.spec.min_boards()) {
      // Shrink-to-fit: an autoscalable job takes whatever is free (at
      // least boards_min) rather than wait for its full target.
      lease = partition_.acquire(
          id, std::max(r.spec.min_boards(),
                       std::min(desired, partition_.free())));
    }
    if (!lease) {
      // Blocked on busy boards. Remember the first (it drives
      // preemption); smaller jobs behind it may still backfill.
      if (first_blocked == 0) first_blocked = id;
      continue;
    }
    queue_.remove(id);
    r.lease = std::move(*lease);
    r.state = JobState::kRunning;
    if (r.lease.size() != r.boards_target) {
      // The grant differs from the size the job last ran at: this is a
      // resize. A warm (preempted) runtime was shaped for the old lease
      // — its BFP exponent cache is per-board — so it is dropped and
      // start_runtime rebuilds from the saved quantum-boundary state.
      r.runtime.reset();
      record_resize(r, "fit");
    }
    start_runtime(r);
    JournalRecord jr;
    jr.type = JournalRecordType::kStarted;
    jr.job = id;
    jr.boards = r.lease.size();
    commit(std::move(jr));
    if (r.first_run_wall_s < 0.0) {
      r.first_run_wall_s = obs::monotonic_seconds();
      reg()
          .histogram("serve.wait_s", 0.0, 60.0, 60)
          .observe(r.first_run_wall_s - r.submit_wall_s);
    }
    obs::log_debug("serve: job %llu leased %zu board(s), t=%g",
                   static_cast<unsigned long long>(id), r.lease.size(),
                   r.runtime->time());
  }
  return first_blocked;
}

void Scheduler::start_runtime(Record& r) {
  if (r.runtime) return;  // preempted: runtime survived, boards changed
  // The runtime constructor computes the job's startup forces on this
  // (control) thread; attribute them — and whatever it forks onto the
  // pool — to the job, or per-scope pipeline counters would not sum to
  // the process totals.
  const obs::ScopedMetricScope attribution(r.scope);
  if (r.has_saved) {
    r.runtime = std::make_unique<JobRuntime>(r.spec, cfg_.machine,
                                             r.lease.size(), r.saved);
  } else {
    r.runtime =
        std::make_unique<JobRuntime>(r.spec, cfg_.machine, r.lease.size());
  }
}

void Scheduler::run_quanta(const std::vector<JobId>& running) {
  if (running.empty()) return;
  const std::size_t quantum = cfg_.quantum_blocksteps;
  const auto round = static_cast<std::int64_t>(round_index_);
  exec::TaskGroup group;
  for (JobId id : running) {
    Record* r = &rec(id);
    // Poison-job injection, decided serially: while the job's consecutive
    // failure count is below its chaos budget the quantum faults instead
    // of integrating — deterministic, and it survives recovery because
    // the failure count is journaled.
    const bool chaos = r->spec.chaos_fail_quanta > r->failures;
    group.run([r, quantum, round, chaos] {
      // Scope installed BEFORE the span opens: the serve.job span (and
      // every span and counter nested under it, on this thread or forked
      // through the pool) is charged to this job.
      const obs::ScopedMetricScope attribution(r->scope);
      G6_PHASE("serve.job");
      flight().record(obs::FlightEventType::kQuantumStart, r->id, round,
                      static_cast<std::int64_t>(quantum));
      const double t0 = obs::monotonic_seconds();
      const double v0 = r->runtime->grape_stats().total_seconds();
      r->q_blocksteps = 0;
      r->q_error = nullptr;
      try {
        if (chaos) {
          throw fault::TransientFault("injected quantum fault (chaos)");
        }
        r->q_blocksteps = r->runtime->run_quantum(quantum);
      } catch (...) {
        // Captured per job: one job's hardware dying (HardFault) or
        // diverging must not tear down its neighbors' quanta.
        r->q_error = std::current_exception();
      }
      r->q_wall_s = obs::monotonic_seconds() - t0;
      r->q_virtual_s = r->runtime->grape_stats().total_seconds() - v0;
    });
  }
  group.wait();
}

void Scheduler::fold_quantum(Record& r) {
  reg().counter("serve.quanta").add();
  r.run_s += r.q_wall_s;
  r.grape_virtual_s += r.q_virtual_s;
  // Serial, job-id order: the per-job quantum_end/revoke/preempt flight
  // subsequence is deterministic even though worker-side events interleave.
  flight().record(obs::FlightEventType::kQuantumEnd, r.id,
                  static_cast<std::int64_t>(round_index_),
                  static_cast<std::int64_t>(r.q_blocksteps),
                  r.q_error ? "error" : nullptr);

  if (r.q_error) {
    std::exception_ptr err = std::exchange(r.q_error, nullptr);
    try {
      std::rethrow_exception(err);
    } catch (const fault::HardFault& e) {
      // The job's slice is gone: every board under the lease is marked
      // dead, and the job re-queues from its last quantum-boundary state
      // (the mid-quantum runtime is torn — never saved).
      obs::log_warn("serve: job %llu hard fault: %s",
                    static_cast<unsigned long long>(r.id), e.what());
      const std::vector<std::size_t> boards = r.lease.boards;
      for (std::size_t b : boards) {
        JournalRecord jr;
        jr.type = JournalRecordType::kBoardDeath;
        jr.board = b;
        commit(std::move(jr));
        reg().counter("serve.board_deaths").add();
      }
      revoke_lease(r, std::string("hard fault: ") + e.what());
    } catch (const fault::TransientFault& e) {
      // Transient (RetryExhausted included: one level up retries with a
      // clean slate — that level is us): bounded retry with backoff, or
      // quarantine once the job looks poisoned.
      retry_or_quarantine(r, e.what());
    } catch (const std::exception& e) {
      release_lease(r);
      r.runtime.reset();
      fail_job(r, RejectReason::kNone,
               std::string("quantum failed: ") + e.what());
    }
    return;
  }

  // Clean quantum boundary: capture resumable state and progress.
  r.saved = r.runtime->save();
  r.has_saved = true;
  r.eq10 = r.runtime->integrator().eq10();
  {
    JournalRecord jr;
    jr.type = JournalRecordType::kQuantum;
    jr.job = r.id;
    jr.quanta = r.quanta + 1;
    jr.t = r.runtime->time();
    jr.steps = r.runtime->integrator().total_steps();
    jr.blocksteps = r.runtime->integrator().total_blocksteps();
    commit(std::move(jr));
  }
  const bool done = r.runtime->done();
  const std::uint64_t every = cfg_.durability.checkpoint_every_quanta;
  // Always checkpoint at completion (the finished record below relies on
  // it for recovery); periodically otherwise.
  if (done || (every > 0 && r.quanta % every == 0)) checkpoint_job(r);
  if (done) finish_job(r);
}

void Scheduler::retry_or_quarantine(Record& r, const std::string& what) {
  const int failures = r.failures + 1;
  reg().counter("serve.job_faults").add();
  flight().record(obs::FlightEventType::kRetry, r.id,
                  static_cast<std::int64_t>(round_index_),
                  static_cast<std::int64_t>(failures));
  release_lease(r);
  // Mid-quantum state is indeterminate; the next attempt resumes from
  // the last clean quantum boundary (or the start).
  r.runtime.reset();
  if (failures >= cfg_.max_job_failures) {
    quarantine_job(r, failures, what);
    return;
  }
  // Exponential virtual-time backoff: 1x, 2x, 4x ... backoff_base_rounds,
  // measured on the round clock so replay is deterministic.
  const std::uint64_t backoff = cfg_.backoff_base_rounds << (failures - 1);
  JournalRecord jr;
  jr.type = JournalRecordType::kRequeued;
  jr.job = r.id;
  jr.reason = "retry";
  jr.requeues = r.requeues;
  jr.failures = failures;
  jr.hold_until = round_index_ + 1 + backoff;
  commit(std::move(jr));
  // Back of the class: unlike a revocation, the fault was the job's own.
  queue_.push_back(r.id, r.spec.priority);
  obs::log_warn(
      "serve: job %llu transient fault (%s); retry %d/%d after %llu "
      "round(s) backoff",
      static_cast<unsigned long long>(r.id), what.c_str(), r.failures,
      cfg_.max_job_failures, static_cast<unsigned long long>(backoff));
}

void Scheduler::quarantine_job(Record& r, int failures,
                               const std::string& what) {
  release_lease(r);
  r.runtime.reset();
  // Attach a flight-recorder dump: the ring holds the retry/requeue
  // trail that led here, which is exactly what a poison-job post-mortem
  // needs.
  std::string dump;
  if (!cfg_.durability.checkpoint_dir.empty()) {
    dump = cfg_.durability.checkpoint_dir + "/" + r.spec.name +
           ".quarantine.flight.json";
    obs::export_flight_json(dump);
  }
  flight().record(obs::FlightEventType::kJobFailed, r.id,
                  static_cast<std::int64_t>(round_index_),
                  static_cast<std::int64_t>(failures), "quarantined");
  JournalRecord jr;
  jr.type = JournalRecordType::kQuarantined;
  jr.job = r.id;
  jr.failures = failures;
  jr.file = dump;
  commit(std::move(jr));
  reg().counter("serve.jobs.quarantined").add();
  observe_terminal(r);
  obs::log_error("serve: job %llu '%s' quarantined: %s (last: %s)",
                 static_cast<unsigned long long>(r.id), r.spec.name.c_str(),
                 r.message.c_str(), what.c_str());
}

void Scheduler::checkpoint_job(Record& r) {
  if (journal_ == nullptr || !r.has_saved) return;
  fault::RunCheckpoint cp;
  cp.run_tag = job_run_tag(r.spec);
  cp.state = r.saved.state;
  cp.exponents = r.saved.exponents;
  cp.e0 = r.saved.e0;
  const std::string path = checkpoint_path(r.spec.name);
  fault::save_checkpoint_rotating(path, cp);
  reg().counter("serve.checkpoint.writes").add();
  JournalRecord jr;
  jr.type = JournalRecordType::kCheckpointed;
  jr.job = r.id;
  jr.quanta = r.quanta;
  jr.file = path;
  jr.tag = cp.run_tag;
  commit(std::move(jr));
}

std::string Scheduler::checkpoint_path(const std::string& job_name) const {
  return cfg_.durability.checkpoint_dir + "/" + job_name + ".ckpt";
}

void Scheduler::graceful_stop() {
  draining_ = true;
  std::size_t checkpointed = 0;
  for (const auto& rp : records_) {
    Record& r = *rp;
    if (r.state != JobState::kQueued && r.state != JobState::kRunning) {
      continue;
    }
    if (r.has_saved) {
      checkpoint_job(r);
      ++checkpointed;
    }
  }
  JournalRecord jr;
  jr.type = JournalRecordType::kDrained;
  jr.reason = "sigterm";
  commit(std::move(jr));
  obs::log_warn(
      "serve: graceful drain (stop requested) at round %llu; %zu live "
      "job(s) checkpointed",
      static_cast<unsigned long long>(round_index_), checkpointed);
}

void Scheduler::observe_terminal(const Record& r) {
  reg()
      .histogram("serve.requeues_per_job", 0.0, 16.0, 16)
      .observe(static_cast<double>(r.requeues));
}

void Scheduler::preempt_for(JobId blocked_id) {
  Record& blocked = rec(blocked_id);
  // The smallest lease that unblocks the job: its floor (shrink-to-fit
  // at the next dispatch covers the rest). Fixed-size jobs' floor is
  // spec.boards, the pre-autoscaling behavior.
  const std::size_t want = blocked.spec.min_boards();
  if (want <= partition_.free()) return;  // freed by folds or shrinks
  std::size_t needed = want - partition_.free();

  // Victims: running jobs of the same or lower priority (numerically >=),
  // least-urgent first, most virtual GRAPE time consumed first (fair
  // share), newest first on ties. Virtual time is emulated-hardware
  // accounting, so the order is identical run to run.
  std::vector<Record*> victims;
  for (const auto& r : records_) {
    if (r->state != JobState::kRunning) continue;
    if (static_cast<int>(r->spec.priority) <
        static_cast<int>(blocked.spec.priority)) {
      continue;
    }
    victims.push_back(r.get());
  }
  std::sort(victims.begin(), victims.end(), [](const Record* a,
                                               const Record* b) {
    if (a->spec.priority != b->spec.priority) {
      return static_cast<int>(a->spec.priority) >
             static_cast<int>(b->spec.priority);
    }
    if (a->grape_virtual_s != b->grape_virtual_s) {
      return a->grape_virtual_s > b->grape_virtual_s;
    }
    return a->id > b->id;
  });

  for (Record* v : victims) {
    if (needed == 0) break;
    const std::size_t freed = v->lease.size();
    release_lease(*v);
    v->state = JobState::kQueued;
    // Cooperative yield at the quantum boundary: the runtime (engine +
    // integrator) stays warm; only the boards are surrendered. Back of
    // the class: the jobs it yielded to get their turn first.
    queue_.push_back(v->id, v->spec.priority);
    ++v->preemptions;
    ++stats_.preemptions;
    reg().counter("serve.preemptions").add();
    flight().record(obs::FlightEventType::kPreempt, v->id,
                    static_cast<std::int64_t>(round_index_),
                    static_cast<std::int64_t>(blocked_id));
    obs::log_debug("serve: job %llu preempted (yields %zu board(s) toward "
                   "job %llu)",
                   static_cast<unsigned long long>(v->id), freed,
                   static_cast<unsigned long long>(blocked_id));
    needed -= std::min(needed, freed);
  }
}

void Scheduler::record_resize(Record& r, const char* why) {
  JournalRecord jr;
  jr.type = JournalRecordType::kLeaseResized;
  jr.job = r.id;
  jr.boards = r.lease.size();
  jr.reason = why;
  commit(std::move(jr));
  reg().counter("serve.lease.resizes").add();
  flight().record(obs::FlightEventType::kLeaseResize, r.id,
                  static_cast<std::int64_t>(round_index_),
                  static_cast<std::int64_t>(r.lease.size()), why);
  obs::log_debug("serve: job %llu lease resized to %zu board(s) (%s)",
                 static_cast<unsigned long long>(r.id), r.lease.size(), why);
}

void Scheduler::resize_running(Record& r, std::size_t new_size,
                               const char* why) {
  G6_REQUIRE(r.state == JobState::kRunning);
  // Resizes happen only at quantum boundaries, where the job has a clean
  // saved state to rebuild from (the BFP exponent cache inside the
  // runtime is shaped by the lease size, so the runtime cannot survive).
  G6_REQUIRE_MSG(r.has_saved, "resize of a job with no quantum boundary");
  G6_REQUIRE(new_size >= 1 && new_size != r.lease.size());
  release_lease(r);
  auto lease = partition_.acquire(r.id, new_size);
  G6_REQUIRE_MSG(lease.has_value(),
                 "lease resize could not re-acquire boards it just freed");
  r.lease = std::move(*lease);
  r.runtime.reset();
  {
    // Same save/restore path a revocation uses: bit-identical resume,
    // attributed to the job.
    const obs::ScopedMetricScope attribution(r.scope);
    r.runtime = std::make_unique<JobRuntime>(r.spec, cfg_.machine, new_size,
                                             r.saved);
  }
  record_resize(r, why);
}

void Scheduler::shrink_for(JobId blocked_id) {
  Record& blocked = rec(blocked_id);
  const std::size_t need = blocked.spec.min_boards();
  // Donors: running autoscalable jobs above their floor, same or lower
  // priority than the blocked job, in the preemption victim order — so
  // shrinking and preemption burden the same jobs, in the same sequence,
  // run after run.
  std::vector<Record*> donors;
  for (const auto& r : records_) {
    if (r->state != JobState::kRunning) continue;
    if (!r->spec.autoscales() || !r->has_saved) continue;
    if (r->lease.size() <= r->spec.min_boards()) continue;
    if (static_cast<int>(r->spec.priority) <
        static_cast<int>(blocked.spec.priority)) {
      continue;
    }
    donors.push_back(r.get());
  }
  std::sort(donors.begin(), donors.end(), [](const Record* a,
                                             const Record* b) {
    if (a->spec.priority != b->spec.priority) {
      return static_cast<int>(a->spec.priority) >
             static_cast<int>(b->spec.priority);
    }
    if (a->grape_virtual_s != b->grape_virtual_s) {
      return a->grape_virtual_s > b->grape_virtual_s;
    }
    return a->id > b->id;
  });
  for (Record* d : donors) {
    if (partition_.free() >= need) break;
    const std::size_t deficit = need - partition_.free();
    const std::size_t give =
        std::min(d->lease.size() - d->spec.min_boards(), deficit);
    resize_running(*d, d->lease.size() - give, "shrink");
  }
}

void Scheduler::grow_leases() {
  // Growth only when nothing is waiting: a queued job has first claim on
  // free boards (next round's dispatch), so growing past it would just
  // force a shrink back.
  if (!queue_.empty() || partition_.free() == 0) return;
  for (const auto& rp : records_) {
    Record& r = *rp;
    if (r.state != JobState::kRunning) continue;
    if (!r.spec.autoscales() || !r.has_saved) continue;
    if (r.lease.size() >= r.spec.max_boards()) continue;
    const std::size_t grow =
        std::min(r.spec.max_boards() - r.lease.size(), partition_.free());
    if (grow == 0) break;
    resize_running(r, r.lease.size() + grow, "grow");
    if (partition_.free() == 0) break;
  }
}

void Scheduler::finish_job(Record& r) {
  r.result = r.runtime->state_now();
  r.result_time = r.runtime->time();
  {
    // The final checkpoint (fold_quantum wrote it just before this call)
    // is already durable, so this record is all recovery needs to rebuild
    // the completed job's result bit-identically.
    JournalRecord jr;
    jr.type = JournalRecordType::kFinished;
    jr.job = r.id;
    jr.quanta = r.quanta;
    jr.t = r.result_time;
    jr.e0 = r.runtime->e0();
    jr.e_final = compute_energy(r.result.bodies(), r.spec.eps).total();
    jr.steps = r.steps;
    jr.blocksteps = r.blocksteps;
    commit(std::move(jr));
  }
  release_lease(r);
  r.runtime.reset();
  stats_.eq10.merge(r.eq10);
  reg().counter("serve.jobs.completed").add();
  observe_terminal(r);
  flight().record(obs::FlightEventType::kJobCompleted, r.id,
                  static_cast<std::int64_t>(round_index_),
                  static_cast<std::int64_t>(r.quanta));
  obs::log_info("serve: job %llu '%s' completed: t=%g, %llu steps, "
                "dE/E=%.3e",
                static_cast<unsigned long long>(r.id), r.spec.name.c_str(),
                r.result_time, r.steps,
                r.e0 != 0.0 ? std::abs((r.e_final - r.e0) / r.e0) : 0.0);
}

void Scheduler::fail_job(Record& r, RejectReason reason, std::string message) {
  {
    JournalRecord jr;
    jr.type = JournalRecordType::kFailed;
    jr.job = r.id;
    jr.reason = reject_reason_name(reason);
    jr.message = std::move(message);
    commit(std::move(jr));
  }
  reg().counter("serve.jobs.failed").add();
  observe_terminal(r);
  flight().record(obs::FlightEventType::kJobFailed, r.id,
                  static_cast<std::int64_t>(round_index_),
                  static_cast<std::int64_t>(r.requeues));
  obs::log_error("serve: job %llu '%s' failed: %s",
                 static_cast<unsigned long long>(r.id), r.spec.name.c_str(),
                 r.message.c_str());
}

void Scheduler::revoke_lease(Record& r, const std::string& why) {
  ++r.revocations;
  ++stats_.revocations;
  reg().counter("serve.revocations").add();
  flight().record(obs::FlightEventType::kRevoke, r.id,
                  static_cast<std::int64_t>(round_index_),
                  static_cast<std::int64_t>(r.lease.size()));
  release_lease(r);
  // The runtime's engine modeled hardware that no longer exists; the next
  // dispatch rebuilds it from `saved` (or from scratch if the job never
  // finished a quantum) on whichever boards are then free.
  r.runtime.reset();
  // Budget check before the increment: `requeues` counts re-queues that
  // actually happened, not the revocation that exhausted the budget.
  if (r.requeues >= cfg_.max_requeues) {
    fail_job(r, RejectReason::kRequeueExhausted,
             "lease revoked (" + why + ") and re-queue budget exhausted (" +
                 std::to_string(cfg_.max_requeues) + ")");
    return;
  }
  {
    JournalRecord jr;
    jr.type = JournalRecordType::kRequeued;
    jr.job = r.id;
    jr.reason = "revocation";
    jr.requeues = r.requeues + 1;
    jr.failures = r.failures;
    jr.hold_until = r.hold_until_round;
    commit(std::move(jr));
  }
  reg().counter("serve.requeues").add();
  // Front of the class: the job lost its boards through no fault of its
  // own, so it keeps its turn.
  queue_.push_front(r.id, r.spec.priority);
  flight().record(obs::FlightEventType::kRequeue, r.id,
                  static_cast<std::int64_t>(round_index_),
                  static_cast<std::int64_t>(r.requeues));
  obs::log_warn("serve: job %llu lease revoked (%s); re-queued at front "
                "(requeue %d/%d)",
                static_cast<unsigned long long>(r.id), why.c_str(),
                r.requeues, cfg_.max_requeues);
}

void Scheduler::release_lease(Record& r) {
  if (!r.lease.valid()) return;
  partition_.release(r.lease);
  r.lease = BoardLease{};
}

void Scheduler::update_round_gauges() {
  reg().gauge("serve.queue.depth").set(static_cast<double>(queue_.size()));
  reg().gauge("serve.boards.dead").set(static_cast<double>(partition_.dead()));
  reg().gauge("serve.boards.free").set(static_cast<double>(partition_.free()));
  reg().gauge("serve.boards.healthy")
      .set(static_cast<double>(partition_.healthy()));
  const std::size_t healthy = partition_.healthy();
  reg().gauge("serve.lease.utilization")
      .set(healthy == 0
               ? 0.0
               : static_cast<double>(partition_.leased()) /
                     static_cast<double>(healthy));
}

JobReport Scheduler::report(JobId id) const {
  MutexLock lk(serial_m_);
  const Record& r = rec(id);
  JobReport rep;
  rep.id = r.id;
  rep.name = r.spec.name;
  rep.priority = r.spec.priority;
  rep.state = r.state;
  rep.reject_reason = r.reject;
  rep.message = r.message;
  rep.n = r.spec.n;
  rep.boards = r.spec.boards;
  rep.boards_now = r.boards_target != 0 ? r.boards_target : r.spec.boards;
  rep.resizes = r.resizes;
  rep.t_end = r.spec.t_end;
  rep.t_reached = r.t_reached;
  rep.steps = r.steps;
  rep.blocksteps = r.blocksteps;
  rep.quanta = r.quanta;
  rep.preemptions = r.preemptions;
  rep.revocations = r.revocations;
  rep.requeues = r.requeues;
  rep.failures = r.failures;
  rep.wait_s =
      r.first_run_wall_s >= 0.0 ? r.first_run_wall_s - r.submit_wall_s : 0.0;
  rep.run_s = r.run_s;
  rep.grape_virtual_s = r.grape_virtual_s;
  rep.eq10 = r.eq10;
  rep.e0 = r.e0;
  rep.e_final = r.e_final;
  return rep;
}

JobState Scheduler::state(JobId id) const {
  MutexLock lk(serial_m_);
  return rec(id).state;
}

const ParticleSet& Scheduler::final_state(JobId id, double* t) const {
  MutexLock lk(serial_m_);
  const Record& r = rec(id);
  G6_REQUIRE_MSG(r.state == JobState::kCompleted,
                 "final_state of a job that has not completed");
  if (t != nullptr) *t = r.result_time;
  return r.result;
}

std::vector<JobId> Scheduler::all_jobs() const {
  MutexLock lk(serial_m_);
  std::vector<JobId> ids;
  ids.reserve(records_.size());
  for (const auto& r : records_) ids.push_back(r->id);
  return ids;
}

}  // namespace g6::serve
