#pragma once
// GrapeService / ServeClient — the public face of the serving layer.
//
// GrapeService owns the whole machine-sharing apparatus (admission,
// queue, partitioner, scheduler) behind a pimpl; nothing in this header
// leaks an internal type, and the g6lint `serve-isolation` rule keeps it
// that way. ServeClient is the handle a tenant holds: submit a JobSpec,
// poll its JobReport, fetch the final particle state. Many clients may
// point at one service; the service itself is single-threaded at the API
// (jobs *run* in parallel on the src/exec pool, but submit/report calls
// are not concurrency-safe against run_until_drained).
//
// Typical use (tools/grape6_served is the full version):
//
//   serve::GrapeService service(cfg);
//   serve::ServeClient client = service.client();
//   auto r = client.submit(spec);
//   if (!r) { /* explicit backpressure: r.reason, r.message */ }
//   service.run_until_drained();
//   serve::JobReport rep = client.report(r.id);

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nbody/particle.hpp"
#include "serve/types.hpp"

namespace g6::serve {

class Scheduler;  // internal; defined in serve/scheduler.hpp
class GrapeService;

/// A tenant's handle on a GrapeService. Copyable, non-owning: the
/// service must outlive every client.
class ServeClient {
 public:
  explicit ServeClient(GrapeService& service) : service_(&service) {}

  /// Admission-checked submission. A false result is explicit
  /// backpressure — inspect reason/message and retry later or resize.
  SubmitResult submit(const JobSpec& spec);

  JobReport report(JobId id) const;
  JobState state(JobId id) const;
  /// Final particle state of a completed job; `t` receives its time.
  const ParticleSet& final_state(JobId id, double* t = nullptr) const;

 private:
  GrapeService* service_;
};

/// The multi-tenant serving layer over one emulated GRAPE machine.
class GrapeService {
 public:
  explicit GrapeService(ServiceConfig cfg = {});
  ~GrapeService();
  GrapeService(const GrapeService&) = delete;
  GrapeService& operator=(const GrapeService&) = delete;

  /// Crash recovery: replay the write-ahead journal at `journal_path`
  /// (written by a service whose config enabled durability), rebuild
  /// queue/partition/scheduler state, and resume — in-flight jobs from
  /// their latest valid checkpoint, completed jobs with their results
  /// reconstructed bit-identically. `info`, when non-null, receives the
  /// replay summary. `stop_flag`, when non-null, re-arms graceful drain
  /// (the flag is process state, so it cannot come from the journal).
  /// Throws serve::JournalError (via the internals) on malformed
  /// journals.
  static std::unique_ptr<GrapeService> recover(
      const std::string& journal_path, RecoveryInfo* info = nullptr,
      std::atomic<bool>* stop_flag = nullptr);

  ServeClient client() { return ServeClient(*this); }

  SubmitResult submit(const JobSpec& spec);
  /// Stop accepting submissions; queued/running jobs still finish.
  void drain();
  /// Run scheduler rounds until no job is queued or running.
  void run_until_drained();
  /// Run at most `max_rounds` rounds; returns true while live work
  /// remains. The serving loop a socket server interleaves with I/O:
  /// accept/submit between calls, advance the machine one round at a
  /// time, stream progress after each call (src/wire/server.hpp).
  bool run_rounds(std::size_t max_rounds);

  JobReport report(JobId id) const;
  JobState state(JobId id) const;
  const ParticleSet& final_state(JobId id, double* t = nullptr) const;

  const ServiceStats& stats() const;
  std::vector<JobId> jobs() const;
  const ServiceConfig& config() const;
  std::size_t healthy_boards() const;

 private:
  explicit GrapeService(std::unique_ptr<Scheduler> impl);

  std::unique_ptr<Scheduler> impl_;
};

/// Write the grape6-serve-report-v1 file that grape6_served emits in both
/// modes: service counters, then one object per job, which holds the
/// write_job_report_keys keys (what the wire's `report` answers) plus its
/// snapshot file from `snapshots` (if any) and its Eq 10 split.
void write_service_report(
    const std::string& path, const GrapeService& service,
    const std::vector<std::pair<JobId, std::string>>& snapshots);

}  // namespace g6::serve
