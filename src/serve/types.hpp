#pragma once
// Public value types of the serving layer (docs/SERVING.md).
//
// The real GRAPE-6 was a shared facility: the 2048-chip machine was
// partitioned into four clusters, each time-shared by multiple hosts and
// user jobs (PAPER.md Sec 2, Sec 5). src/serve is the software twin of
// that operation model — many independent N-body jobs multiplexed onto
// one emulated machine. Everything in this header is part of the client
// surface; the moving parts behind it (JobQueue, Scheduler,
// BoardPartitioner) are internal and fenced off by the g6lint
// `serve-isolation` rule.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "fault/plan.hpp"
#include "grape/config.hpp"
#include "nbody/particle.hpp"
#include "obs/eq10.hpp"
#include "obs/json.hpp"

namespace g6::serve {

/// Process-unique job handle; 0 is never a valid id.
using JobId = std::uint64_t;

/// Priority classes, most urgent first. Interactive jobs (a user steering
/// a small-N run) jump ahead of batch production runs; within a class
/// dispatch is FIFO.
enum class Priority : int {
  kInteractive = 0,
  kBatch = 1,
};
inline constexpr std::size_t kPriorityClasses = 2;

const char* priority_name(Priority p);

/// Lifecycle of a job inside the service (full state diagram:
/// docs/SERVING.md, "Job lifecycle").
///
///   submit -> kQueued -> kRunning -> kCompleted
///                 ^          |
///                 +----------+   (cooperative preemption at a blockstep
///                                 boundary, lease revocation after a
///                                 board death, or transient-fault retry
///                                 with virtual-time backoff)
///
/// kRejected jobs never enter the queue; kFailed jobs exhausted their
/// re-queue budget, missed their deadline, or hit a non-recoverable
/// error; kQuarantined jobs failed `max_job_failures` consecutive quanta
/// (poison jobs) and were isolated so they cannot starve the machine.
enum class JobState : int {
  kQueued = 0,
  kRunning = 1,
  kCompleted = 2,
  kFailed = 3,
  kRejected = 4,
  kQuarantined = 5,
};

const char* job_state_name(JobState s);

/// Why admission said no. Backpressure is explicit: a rejected submit
/// carries the reason and a human-readable message, never a silent drop.
enum class RejectReason : int {
  kNone = 0,
  kQueueFull = 1,         ///< bounded queue depth reached; retry later
  kBoardsUnavailable = 2, ///< job wants more boards than the machine has healthy
  kInvalidSpec = 3,       ///< malformed job parameters
  kDraining = 4,          ///< service no longer accepts new work
  kDeadlineExceeded = 5,  ///< job missed its deadline_rounds budget
  kRequeueExhausted = 6,  ///< lease revocations burned the re-queue budget
  kQuarantined = 7,       ///< poison job: max_job_failures transient faults
};

const char* reject_reason_name(RejectReason r);

/// One simulation job: the same knobs grape6_run exposes, as data.
struct JobSpec {
  std::string name;               ///< unique within a service (report/snapshot key)
  std::string model = "plummer";  ///< plummer|king|uniform|disk|bhbinary|hernquist
  std::size_t n = 256;            ///< particle count
  double w0 = 6.0;                ///< King depth (model=king)
  double t_end = 0.25;            ///< integration span (Heggie units)
  double eps = 1.0 / 64.0;        ///< Plummer softening
  double eta = 0.02;              ///< Aarseth accuracy parameter
  unsigned seed = 1;              ///< IC realization seed
  std::size_t boards = 1;         ///< lease size (emulated processor boards)
  Priority priority = Priority::kBatch;

  /// Autoscaling bounds on the lease (0 = same as `boards`, i.e. fixed).
  /// When the range is wider than `boards`, the scheduler may grow the
  /// job's lease toward boards_max on an idle machine and shrink it
  /// toward boards_min under queue pressure, between quanta. Physics is
  /// a function of the lease *size only* and the BFP merge order is
  /// board-count invariant, so a resized job's snapshot stays
  /// byte-identical to a standalone run (the serve_identity check
  /// asserts it). Every resize routes through the integrator
  /// save/restore path and is journaled as a `lease-resized` record.
  std::size_t boards_min = 0;
  std::size_t boards_max = 0;

  std::size_t min_boards() const { return boards_min ? boards_min : boards; }
  std::size_t max_boards() const { return boards_max ? boards_max : boards; }
  bool autoscales() const { return min_boards() < boards || max_boards() > boards; }

  /// Deadline in scheduler rounds (the service's logical clock — wall
  /// time would break replay determinism). 0 = no deadline. A job still
  /// live when the round counter passes submit_round + deadline_rounds
  /// fails with kDeadlineExceeded at the next round boundary.
  std::uint64_t deadline_rounds = 0;

  /// Fault-injection hook for poison-job testing: the job's first
  /// `chaos_fail_quanta` quanta throw a TransientFault instead of
  /// integrating. Deterministic (counted per job, survives runtime
  /// rebuilds) so quarantine tests replay identically. 0 = healthy job.
  int chaos_fail_quanta = 0;
};

/// Write `spec` as the one JSON job object every codec shares: a manifest
/// job entry, a journal `submitted` record's spec and a wire `submit`.
/// The 14 keys in a fixed order, doubles at 17 digits.
void write_job_spec(std::ostream& os, const JobSpec& spec);

/// Read a job object. A key outside the 14 fails, and so does a missing
/// `name` — or, with `every_key` (the journal, which replays exactly what
/// it wrote), any missing key; absent keys keep JobSpec's defaults. Only
/// types and ranges are checked: whether the spec can run is admission's
/// call (AdmissionController::validate_spec). Failures go through `fail`
/// with messages that start with `where`.
JobSpec read_job_spec(const obs::JsonValue& j, const std::string& where,
                      obs::JsonFail fail, bool every_key = false);

/// Outcome of ServeClient::submit.
struct SubmitResult {
  JobId id = 0;  ///< valid even for rejected jobs (reports stay queryable)
  bool accepted = false;
  RejectReason reason = RejectReason::kNone;
  std::string message;  ///< why, in words (empty when accepted)

  explicit operator bool() const { return accepted; }
};

/// Everything a client learns about one job: state, progress, scheduling
/// and fair-share accounting, and the per-job Eq 10 split.
struct JobReport {
  JobId id = 0;
  std::string name;
  Priority priority = Priority::kBatch;
  JobState state = JobState::kQueued;
  RejectReason reject_reason = RejectReason::kNone;
  std::string message;  ///< failure / rejection detail

  std::size_t n = 0;
  std::size_t boards = 0;      ///< requested lease size (JobSpec::boards)
  std::size_t boards_now = 0;  ///< current lease size after autoscaling
  std::uint64_t resizes = 0;   ///< lease grow/shrink events applied
  double t_end = 0.0;
  double t_reached = 0.0;   ///< simulation time the job has advanced to

  unsigned long long steps = 0;       ///< individual particle steps
  unsigned long long blocksteps = 0;
  std::uint64_t quanta = 0;           ///< quanta completed without a fault
  std::uint64_t preemptions = 0;      ///< cooperative lease handoffs
  std::uint64_t revocations = 0;      ///< leases lost to board deaths
  int requeues = 0;                   ///< re-queues consumed (of max_requeues)
  int failures = 0;                   ///< transient faults (of max_job_failures)

  double wait_s = 0.0;            ///< submit -> first quantum (wall)
  double run_s = 0.0;             ///< wall seconds inside quanta
  double grape_virtual_s = 0.0;   ///< fair-share account: virtual GRAPE seconds
  obs::Eq10Accumulator eq10;      ///< per-job T_host + T_comm + T_GRAPE split

  double e0 = 0.0;       ///< initial total energy (completed jobs)
  double e_final = 0.0;  ///< final total energy (completed jobs)
  /// |(E - E0)/E0|, 0 until completion.
  double energy_error() const;
};

/// Write the 25 per-job report keys, `"id":1,...,"energy_error":0`,
/// without braces: the wire's `report` response and terminal event wrap
/// them as they are, and each job object of the grape6-serve-report-v1
/// file appends its `snapshot` and `eq10`. Doubles at 17 digits.
void write_job_report_keys(std::ostream& os, const JobReport& r);

/// A board death the service must survive: at the start of scheduler
/// round `round`, board `board` goes permanently dead. If the board is
/// leased, the owning job's lease is revoked and the job re-queued; the
/// board never hosts another lease. The schedule usually comes from the
/// board-level hard failures of a fault::FaultPlan (see
/// board_deaths_from_plan), keeping serve's degradation model and the
/// fault subsystem's one and the same.
struct BoardDeath {
  std::uint64_t round = 0;
  std::size_t board = 0;
};

/// Map the board-level hard failures of a fault plan onto serve's round
/// clock: entry times are interpreted as scheduler round numbers (jobs
/// have independent simulation clocks, so the machine-wide schedule needs
/// a machine-wide clock). Chip- and module-level entries are ignored —
/// sub-board faults are the per-job engine's business, not the
/// partitioner's.
std::vector<BoardDeath> board_deaths_from_plan(const fault::FaultPlan& plan);

/// Durability knobs: where the write-ahead journal and per-job
/// checkpoints live. Both empty = volatile service (exactly the pre-
/// durability behavior, zero overhead). See docs/RELIABILITY.md,
/// "Serving durability".
struct DurabilityConfig {
  std::string journal_path;    ///< write-ahead journal ("" = no journal)
  std::string checkpoint_dir;  ///< per-job checkpoint files ("" = none)
  /// Checkpoint cadence in quanta: every k-th completed quantum of a job
  /// persists its state (plus always at finish). 0 disables periodic
  /// checkpoints — recovery then replays affected jobs from scratch,
  /// which is slower but still bit-identical.
  std::uint64_t checkpoint_every_quanta = 1;

  bool enabled() const { return !journal_path.empty(); }
};

/// Service-wide configuration.
struct ServiceConfig {
  /// Chip microarchitecture and board pool. The pool the partitioner
  /// carves up is machine.total_boards() (boards_per_host x hosts x
  /// clusters — the paper's 4-way partitioned machine is 4 hosts x 4
  /// boards); each job's engine is built from this config with
  /// boards_per_host set to its lease size.
  MachineConfig machine;
  std::size_t max_queue_depth = 64;      ///< admission bound (queued jobs)
  std::size_t quantum_blocksteps = 16;   ///< cooperative preemption grain
  int max_requeues = 2;  ///< re-queue budget per job after lease revocations
  std::vector<BoardDeath> board_deaths;  ///< scheduled hardware deaths

  /// Poison-job quarantine threshold: consecutive transient-fault quanta
  /// before the job is quarantined instead of retried.
  int max_job_failures = 3;
  /// First retry backoff in rounds; doubles per consecutive failure
  /// (virtual-time exponential backoff: 1, 2, 4, ... rounds held).
  std::uint64_t backoff_base_rounds = 1;

  DurabilityConfig durability;

  /// Graceful-drain flag (SIGTERM): when non-null and set, the scheduler
  /// finishes the current round, checkpoints every live job, journals a
  /// drain record, and returns early from run_until_drained.
  std::atomic<bool>* stop_flag = nullptr;

  std::size_t pool_boards() const { return machine.total_boards(); }
};

/// Aggregate service counters, one struct per run_until_drained call
/// (cumulative across calls on the same service).
struct ServiceStats {
  std::uint64_t rounds = 0;
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t revocations = 0;
  std::uint64_t requeues = 0;
  std::uint64_t resizes = 0;   ///< autoscaling lease grow/shrink events
  std::size_t boards_dead = 0;
  double makespan_s = 0.0;        ///< wall time inside run_until_drained
  obs::Eq10Accumulator eq10;      ///< merged over completed jobs
};

/// What a --recover replay reconstructed (client-visible summary; the
/// replay itself is Scheduler::recover, internal).
struct RecoveryInfo {
  std::uint64_t journal_records = 0;   ///< complete records replayed
  bool torn_tail = false;              ///< final line was a torn write
  std::uint64_t jobs_restored = 0;     ///< live jobs re-entering the queue
  std::uint64_t jobs_resumed_from_checkpoint = 0;  ///< of those, mid-flight
  std::uint64_t jobs_already_terminal = 0;  ///< completed/failed before crash
  std::uint64_t resume_round = 0;      ///< round clock after replay
};

}  // namespace g6::serve
