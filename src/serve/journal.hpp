#pragma once
// Write-ahead job journal (schema grape6-serve-journal-v1) — the
// durability backbone of the serving layer (docs/RELIABILITY.md,
// "Serving durability").
//
// Every job lifecycle transition is appended as one JSON-lines record
// and fsync'd (util/fileio.hpp AppendLog) *before* the transition takes
// effect, so after a crash — including kill -9 mid-write — the journal
// is a complete prefix of the service history plus at most one torn
// final line. `grape6_served --recover <journal>` replays that prefix
// through the scheduler's own state machine (Scheduler::recover and
// Scheduler::apply in serve/scheduler.hpp) to rebuild queue/partition/
// scheduler state and resume in-flight jobs from their latest valid
// checkpoint.
//
// Parsing is strict: every complete line must be a JSON object with
// exactly the keys its record type defines — unknown keys, missing
// keys, or type mismatches throw JournalError rather than guessing.
// Only an unterminated final line (a torn write) is tolerated, because
// the append protocol guarantees nothing else can be damaged.
//
// This header is serve-internal (g6lint `serve-isolation`): clients see
// recovery results only through GrapeService::recover and RecoveryInfo.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "serve/types.hpp"
#include "util/fileio.hpp"

namespace g6::serve {

/// Malformed journal: bad schema, unknown/missing/mistyped keys, broken
/// sequence numbers, or an unreadable file.
class JournalError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr const char* kJournalSchema = "grape6-serve-journal-v1";

/// Every transition the journal records, in lifecycle order.
enum class JournalRecordType : int {
  kOpen = 0,         ///< first record: schema + full service config
  kRecovered = 1,    ///< a --recover replay succeeded; new process generation
  kSubmitted = 2,    ///< submit() called; carries the full JobSpec
  kAdmitted = 3,     ///< admission accepted; job entered the queue
  kRejected = 4,     ///< admission refused; terminal
  kStarted = 5,      ///< lease granted; job dispatched onto boards
  kQuantum = 6,      ///< one quantum folded cleanly; progress counters
  kCheckpointed = 7, ///< job state persisted; carries path + run_tag
  kRequeued = 8,     ///< lease revoked or transient fault; back to queue
  kBoardDeath = 9,   ///< a scheduled board death fired
  kFinished = 10,    ///< job completed; terminal
  kFailed = 11,      ///< job failed (deadline/requeue budget/error); terminal
  kQuarantined = 12, ///< poison job isolated; terminal
  kDrained = 13,     ///< service drained (normal or SIGTERM); clean shutdown
  kLeaseResized = 14, ///< autoscaling grew/shrank a lease between quanta
};

const char* journal_record_type_name(JournalRecordType t);

/// One journal line, decoded. A single fat struct: each type uses the
/// subset of fields its schema defines (record_keys in journal.cpp); the
/// rest stay at their defaults.
struct JournalRecord {
  std::uint64_t seq = 0;  ///< 1-based, strictly consecutive
  JournalRecordType type = JournalRecordType::kOpen;
  std::uint64_t round = 0;  ///< scheduler round clock at append time

  JobId job = 0;        ///< subject job (0 for machine-level records)
  JobSpec spec;         ///< kSubmitted
  ServiceConfig config; ///< kOpen (stop_flag is never serialized)

  std::string reason;   ///< kRejected/kFailed: reject reason name;
                        ///< kRequeued: "revocation"|"retry";
                        ///< kDrained: "drained"|"sigterm";
                        ///< kLeaseResized: "grow"|"shrink"|"fit"
  std::string message;  ///< kRejected/kFailed human-readable detail
  std::string file;     ///< kCheckpointed: checkpoint path;
                        ///< kQuarantined: flight-recorder dump path
  std::string tag;      ///< kCheckpointed: run_tag content key

  std::uint64_t quanta = 0;            ///< kQuantum/kCheckpointed/kFinished
  double t = 0.0;                      ///< simulation time reached
  double e0 = 0.0;                     ///< kFinished
  double e_final = 0.0;                ///< kFinished
  unsigned long long steps = 0;        ///< kQuantum/kFinished
  unsigned long long blocksteps = 0;   ///< kQuantum/kFinished
  int requeues = 0;                    ///< kRequeued
  int failures = 0;                    ///< kRequeued (retry) / kQuarantined
  std::uint64_t hold_until = 0;        ///< kRequeued: backoff release round
  std::size_t board = 0;               ///< kBoardDeath
  std::size_t boards = 0;              ///< kStarted/kLeaseResized: lease size
  std::uint64_t records = 0;           ///< kRecovered: records replayed
};

/// Serialize one record to a single JSON line (no trailing newline).
/// Doubles are printed with 17 significant digits so replay round-trips
/// IEEE binary64 exactly.
std::string encode_record(const JournalRecord& rec);

/// Parse one complete journal line; throws JournalError on any
/// deviation from the schema (strict keys per record type).
JournalRecord decode_record(std::string_view line);

/// Result of reading a journal back.
struct JournalReplay {
  std::vector<JournalRecord> records;  ///< complete, validated records
  bool torn_tail = false;  ///< final line was unterminated and dropped
  /// Length of the complete-record prefix: the file size minus the torn
  /// fragment, where a writer continuing the journal must resume.
  std::uint64_t complete_bytes = 0;
};

/// Read and validate a whole journal file: record 1 must be kOpen with
/// the expected schema, sequence numbers must be consecutive, and every
/// newline-terminated line must decode. A trailing unterminated
/// fragment — the only damage the append protocol permits — is dropped
/// and flagged. Throws JournalError otherwise.
JournalReplay replay_journal(const std::string& path);

/// Content key for a job's checkpoints: a fingerprint of everything
/// that shapes its dynamics (model, n, w0, t_end, eps, eta, seed,
/// boards — the lease *size*, which fixes the BFP pipeline shape).
/// Stored as the checkpoint run_tag; resume refuses a mismatch.
std::string job_run_tag(const JobSpec& spec);

/// Append-side handle: assigns consecutive sequence numbers and writes
/// each record durably (write + fsync) before returning. One instance
/// per service process generation.
class Journal {
 public:
  /// Open `path`; `truncate` starts a fresh journal (new service),
  /// append mode continues one (recovery, which passes the next unused
  /// sequence number from its replay).
  Journal(const std::string& path, bool truncate,
          std::uint64_t start_seq = 1);

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Durably append `rec` (its seq field is overwritten with the next
  /// consecutive sequence number). Throws IoError on write failure.
  void append(JournalRecord rec);

  std::uint64_t next_seq() const { return next_seq_; }
  const std::string& path() const { return log_.path(); }

 private:
  AppendLog log_;
  std::uint64_t next_seq_ = 1;
};

}  // namespace g6::serve
