#pragma once
// Scheduler — the serving loop that time-shares the emulated machine.
//
// INTERNAL to src/serve (g6lint serve-isolation): clients reach it
// through GrapeService / ServeClient only.
//
// The loop runs in *rounds*. Each round:
//
//   1. Scheduled board deaths due this round fire. A death under a lease
//      revokes it: the job's runtime is torn down (the hardware is gone),
//      its last blockstep-boundary state is kept, and the job re-enters
//      its class queue at the FRONT (it lost the boards through no fault
//      of its own) — the fault path re-queues work instead of killing the
//      process.
//   2. Dispatch: queued jobs, interactive class first and FIFO within a
//      class, are granted leases from the free healthy boards (first fit,
//      lowest ids; smaller jobs may backfill past a blocked head).
//   3. Every leased job runs one quantum — at most quantum_blocksteps
//      blocksteps, never past its t_end — as one task on the shared
//      src/exec pool, so jobs with disjoint leases genuinely overlap.
//   4. Results fold in job-id order (accounting stays deterministic):
//      completed jobs release their lease; a quantum that threw HardFault
//      marks its boards dead and re-queues the job; other errors fail the
//      job without touching its neighbors.
//   5. If a queued job found no boards this round, running jobs of the
//      same or lower priority yield cooperatively: leases are released at
//      the quantum boundary and the yielding jobs go to the BACK of their
//      class — round-robin time-sharing with per-job fair-share
//      accounting (virtual GRAPE seconds) in the reports.
//
// Determinism: scheduling decisions depend only on (submission order,
// specs, the board-death schedule) — never on wall time — and each job's
// physics lives in its own JobRuntime, so every job's result is
// bit-identical to the same spec run standalone.
//
// Durability (docs/RELIABILITY.md, "Serving durability"): with
// ServiceConfig::durability enabled, every lifecycle transition is
// journaled (serve/journal.hpp) before submit/round returns, jobs are
// checkpointed at quantum boundaries (fault/checkpoint.hpp, rotating
// generations), and recover() rebuilds the whole scheduler from a
// replayed journal — the round clock, dead boards, queue order and
// per-job physics state all resume where the previous process stopped.
// Live transitions and the replay share one state machine: every
// journaled field is written by apply(record) and nothing else.
// Per-job policies ride on the same machinery: deadlines measured in
// rounds (the logical clock — wall time would break replay), transient-
// fault retry with exponential virtual-time backoff, and poison-job
// quarantine with a flight-recorder dump.

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "serve/admission.hpp"
#include "serve/job.hpp"
#include "serve/job_queue.hpp"
#include "serve/journal.hpp"
#include "serve/partition.hpp"
#include "serve/types.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace g6::obs {
class MetricScope;
}  // namespace g6::obs

namespace g6::serve {

class Scheduler {
 public:
  explicit Scheduler(ServiceConfig cfg);
  /// Crash recovery (GrapeService::recover): build the scheduler from the
  /// journal's `open` record, apply() every later record, attach the
  /// validated checkpoints, queue the live jobs in id order, then cut any
  /// torn tail and continue the journal with a `recovered` record.
  /// Throws JournalError on a malformed journal or an unusable completed
  /// job's checkpoint.
  static std::unique_ptr<Scheduler> recover(const std::string& journal_path,
                                            RecoveryInfo* info,
                                            std::atomic<bool>* stop_flag);
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Admission-checked submission; rejected jobs get a record (and a
  /// queryable report) too, but never enter the queue.
  SubmitResult submit(const JobSpec& spec);

  /// Stop accepting new submissions (subsequent submits reject with
  /// kDraining); queued and running jobs still run to completion.
  void drain() {
    MutexLock lk(serial_m_);
    draining_ = true;
  }

  /// Run rounds until no job is queued or running — or until
  /// cfg.stop_flag is raised, which triggers a graceful drain
  /// (checkpoint live jobs, journal a drain record, return early).
  void run_until_drained();

  /// Run at most `max_rounds` rounds; returns true while live work
  /// remains. Lets tests simulate a crash at an exact quantum boundary
  /// without killing the process.
  bool run_rounds(std::uint64_t max_rounds);

  JobReport report(JobId id) const;
  JobState state(JobId id) const;
  /// Final particle state of a completed job; `t` receives its time.
  const ParticleSet& final_state(JobId id, double* t) const;
  const ServiceStats& stats() const { return stats_; }
  std::vector<JobId> all_jobs() const;
  const ServiceConfig& config() const { return cfg_; }
  std::size_t healthy_boards() const {
    MutexLock lk(serial_m_);
    return partition_.healthy();
  }

 private:
  struct Record {
    // Journaled: written only by apply(), so live runs and replays of
    // the same journal hold the same values.
    JobSpec spec;
    JobId id = 0;
    /// kRunning is the one live-only state: a replay treats a running
    /// job as queued.
    JobState state = JobState::kQueued;
    RejectReason reject = RejectReason::kNone;
    std::string message;
    std::uint64_t submit_round = 0;  ///< deadline epoch (logical clock)
    std::uint64_t quanta = 0;        ///< clean quanta folded
    double t_reached = 0.0;
    unsigned long long steps = 0;
    unsigned long long blocksteps = 0;
    int requeues = 0;  ///< revocation re-queues consumed
    int failures = 0;  ///< consecutive transient-fault quanta (quarantine)
    std::uint64_t hold_until_round = 0;  ///< retry backoff release round
    /// Autoscaling: the lease size the job runs at (starts at spec.boards,
    /// moves within [min_boards, max_boards]; every change is journaled).
    std::size_t boards_target = 0;
    std::uint64_t resizes = 0;           ///< grow/shrink events applied
    std::string checkpoint_file;         ///< last checkpoint path ("" = none)
    double e0 = 0.0;       ///< set at completion, with e_final
    double e_final = 0.0;

    // Live only: the journal does not record these; recovery rebuilds
    // them (saved state from checkpoints) or starts them afresh.
    BoardLease lease;                      ///< valid while kRunning
    std::unique_ptr<JobRuntime> runtime;   ///< live while running/preempted
    /// Attribution scope ("job:<name>") in the global ScopeRegistry;
    /// installed on every thread that does this job's work. Set once at
    /// admission; the registry owns it.
    obs::MetricScope* scope = nullptr;
    SavedJob saved;                        ///< last blockstep-boundary state
    bool has_saved = false;

    // accounting (folded serially; reports read these, never the runtime)
    double submit_wall_s = 0.0;
    double first_run_wall_s = -1.0;
    std::uint64_t preemptions = 0;
    std::uint64_t revocations = 0;
    double run_s = 0.0;
    double grape_virtual_s = 0.0;
    obs::Eq10Accumulator eq10;

    // quantum scratch: written by this job's pool task, read after join
    std::size_t q_blocksteps = 0;
    double q_wall_s = 0.0;
    double q_virtual_s = 0.0;
    std::exception_ptr q_error;

    // result
    ParticleSet result;
    double result_time = 0.0;
  };

  Record& rec(JobId id) G6_REQUIRES(serial_m_);
  const Record& rec(JobId id) const G6_REQUIRES(serial_m_);

  /// The job state machine: the one writer of every field a journal
  /// record carries (the journaled Record fields, their stats_ counters,
  /// and for board deaths the partition and pending_deaths_). Live
  /// transitions reach it through commit(); recovery calls it on each
  /// replayed record. Throws JournalError on a record that names an
  /// unknown job or reason.
  void apply(const JournalRecord& rec) G6_REQUIRES(serial_m_);
  /// A live transition: stamp the round, append durably when a journal
  /// is open, then apply(). Everything the journal does not record
  /// (queue order, leases, runtimes, metrics, flight events, logs) stays
  /// with the caller.
  void commit(JournalRecord rec) G6_REQUIRES(serial_m_);
  /// Recovery after the replay: checkpoints, queue, completed results,
  /// the reopened journal.
  void resume_from(const std::string& journal_path,
                   const JournalReplay& replay, RecoveryInfo* info)
      G6_REQUIRES(serial_m_);
  /// Load the last journaled checkpoint of a replayed job into its saved
  /// state. `required` (completed jobs) turns an unusable file into a
  /// JournalError; a live job just re-runs from scratch.
  void load_checkpoint(Record& r, bool required) G6_REQUIRES(serial_m_);

  bool has_live_work() const G6_REQUIRES(serial_m_);
  void round() G6_REQUIRES(serial_m_);
  void enforce_deadlines() G6_REQUIRES(serial_m_);
  void apply_board_deaths() G6_REQUIRES(serial_m_);
  /// Dispatch queued jobs into free boards; returns the first job that
  /// stayed blocked for lack of free boards (0 = none).
  JobId dispatch() G6_REQUIRES(serial_m_);
  void run_quanta(const std::vector<JobId>& running) G6_REQUIRES(serial_m_);
  void fold_quantum(Record& r) G6_REQUIRES(serial_m_);
  void preempt_for(JobId blocked_id) G6_REQUIRES(serial_m_);

  /// Autoscaling (between quanta only; see docs/SERVING.md):
  /// resize a running job's lease to `new_size` — release, re-acquire,
  /// rebuild the runtime through the save/restore path (the BFP exponent
  /// cache is shaped by the lease size), journal a lease-resized record.
  void resize_running(Record& r, std::size_t new_size, const char* why)
      G6_REQUIRES(serial_m_);
  /// Bookkeeping shared by every resize path: a lease-resized record
  /// moves boards_target to the lease size, counters tick.
  void record_resize(Record& r, const char* why) G6_REQUIRES(serial_m_);
  /// Queue pressure: shrink running autoscalable jobs toward boards_min
  /// to free boards for `blocked_id` before resorting to preemption.
  void shrink_for(JobId blocked_id) G6_REQUIRES(serial_m_);
  /// Idle machine: grow running autoscalable jobs toward boards_max.
  void grow_leases() G6_REQUIRES(serial_m_);

  void start_runtime(Record& r) G6_REQUIRES(serial_m_);
  void finish_job(Record& r) G6_REQUIRES(serial_m_);
  void fail_job(Record& r, RejectReason reason, std::string message)
      G6_REQUIRES(serial_m_);
  /// Lease lost to dead hardware: keep the saved state, drop the runtime,
  /// re-queue at the front (bounded by max_requeues).
  void revoke_lease(Record& r, const std::string& why) G6_REQUIRES(serial_m_);
  void release_lease(Record& r) G6_REQUIRES(serial_m_);
  void update_round_gauges() G6_REQUIRES(serial_m_);

  /// Transient fault in a quantum: retry with exponential virtual-time
  /// backoff, or quarantine after max_job_failures consecutive faults.
  void retry_or_quarantine(Record& r, const std::string& what)
      G6_REQUIRES(serial_m_);
  /// Poison job: isolate it (terminal kQuarantined) after `failures`
  /// consecutive faults, the last one `what`, and dump the flight
  /// recorder next to its checkpoints for post-mortem.
  void quarantine_job(Record& r, int failures, const std::string& what)
      G6_REQUIRES(serial_m_);
  /// Persist a job's last quantum-boundary state (rotating generations)
  /// and journal the checkpoint. No-op without durability or saved state.
  void checkpoint_job(Record& r) G6_REQUIRES(serial_m_);
  /// SIGTERM drain: checkpoint every live job, journal a drain record.
  void graceful_stop() G6_REQUIRES(serial_m_);
  /// Requeues-per-job histogram, observed once at each terminal state.
  void observe_terminal(const Record& r) G6_REQUIRES(serial_m_);
  std::string checkpoint_path(const std::string& job_name) const;

  // The service contract says "one control thread": serial_m_ turns that
  // prose invariant into a compile-time one. Every public entry point
  // takes it, every private mutator G6_REQUIRES it, and the serving state
  // below is G6_GUARDED_BY it — so -Wthread-safety rejects any new code
  // path that reaches scheduling state without going through the serial
  // section. Uncontended by design, so the lock costs one atomic op.
  mutable Mutex serial_m_;

  ServiceConfig cfg_;
  AdmissionController admission_ G6_GUARDED_BY(serial_m_);
  BoardPartitioner partition_ G6_GUARDED_BY(serial_m_);
  JobQueue queue_ G6_GUARDED_BY(serial_m_);
  /// index = id - 1
  std::vector<std::unique_ptr<Record>> records_ G6_GUARDED_BY(serial_m_);
  /// sorted by round
  std::vector<BoardDeath> pending_deaths_ G6_GUARDED_BY(serial_m_);
  std::uint64_t round_index_ G6_GUARDED_BY(serial_m_) = 0;
  bool draining_ G6_GUARDED_BY(serial_m_) = false;
  /// Write-ahead journal; null when durability is off.
  std::unique_ptr<Journal> journal_ G6_GUARDED_BY(serial_m_);
  ServiceStats stats_;  ///< read via stats() after drain; folded serially
};

}  // namespace g6::serve
