#include "serve/service.hpp"

#include <sstream>

#include "obs/json.hpp"
#include "serve/scheduler.hpp"
#include "util/check.hpp"
#include "util/fileio.hpp"

namespace g6::serve {

namespace {

void write_eq10(std::ostream& os, const obs::Eq10Accumulator& eq) {
  os << "{\"host_s\":" << eq.host_s << ",\"dma_s\":" << eq.dma_s
     << ",\"net_s\":" << eq.net_s << ",\"grape_s\":" << eq.grape_s
     << ",\"total_s\":" << eq.total_s << ",\"steps\":" << eq.steps
     << ",\"blocksteps\":" << eq.blocksteps << "}";
}

}  // namespace

GrapeService::GrapeService(ServiceConfig cfg)
    : impl_(std::make_unique<Scheduler>(std::move(cfg))) {
  G6_REQUIRE(impl_ != nullptr);
}

GrapeService::GrapeService(std::unique_ptr<Scheduler> impl)
    : impl_(std::move(impl)) {
  G6_REQUIRE(impl_ != nullptr);
}

std::unique_ptr<GrapeService> GrapeService::recover(
    const std::string& journal_path, RecoveryInfo* info,
    std::atomic<bool>* stop_flag) {
  auto scheduler = Scheduler::recover(journal_path, info, stop_flag);
  // make_unique cannot reach the private constructor; `new` here is the
  // factory's own body, which can.
  return std::unique_ptr<GrapeService>(
      new GrapeService(std::move(scheduler)));
}

GrapeService::~GrapeService() = default;

SubmitResult GrapeService::submit(const JobSpec& spec) {
  return impl_->submit(spec);
}

void GrapeService::drain() { impl_->drain(); }

void GrapeService::run_until_drained() { impl_->run_until_drained(); }

bool GrapeService::run_rounds(std::size_t max_rounds) {
  return impl_->run_rounds(max_rounds);
}

JobReport GrapeService::report(JobId id) const { return impl_->report(id); }

JobState GrapeService::state(JobId id) const { return impl_->state(id); }

const ParticleSet& GrapeService::final_state(JobId id, double* t) const {
  return impl_->final_state(id, t);
}

const ServiceStats& GrapeService::stats() const { return impl_->stats(); }

std::vector<JobId> GrapeService::jobs() const { return impl_->all_jobs(); }

const ServiceConfig& GrapeService::config() const { return impl_->config(); }

std::size_t GrapeService::healthy_boards() const {
  return impl_->healthy_boards();
}

SubmitResult ServeClient::submit(const JobSpec& spec) {
  return service_->submit(spec);
}

JobReport ServeClient::report(JobId id) const { return service_->report(id); }

JobState ServeClient::state(JobId id) const { return service_->state(id); }

const ParticleSet& ServeClient::final_state(JobId id, double* t) const {
  return service_->final_state(id, t);
}

void write_service_report(
    const std::string& path, const GrapeService& service,
    const std::vector<std::pair<JobId, std::string>>& snapshots) {
  std::ostringstream os;
  os.precision(17);

  const ServiceStats& st = service.stats();
  os << "{\n  \"schema\": \"grape6-serve-report-v1\",\n  \"service\": {"
     << "\"boards\": " << service.config().pool_boards()
     << ", \"healthy_boards\": " << service.healthy_boards()
     << ", \"rounds\": " << st.rounds << ", \"submitted\": " << st.submitted
     << ", \"rejected\": " << st.rejected
     << ", \"completed\": " << st.completed << ", \"failed\": " << st.failed
     << ", \"quarantined\": " << st.quarantined
     << ", \"preemptions\": " << st.preemptions
     << ", \"revocations\": " << st.revocations
     << ", \"requeues\": " << st.requeues
     << ", \"resizes\": " << st.resizes
     << ", \"boards_dead\": " << st.boards_dead
     << ", \"makespan_s\": " << st.makespan_s << ", \"eq10\": ";
  write_eq10(os, st.eq10);
  os << "},\n  \"jobs\": [\n";

  const std::vector<JobId> ids = service.jobs();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const JobReport r = service.report(ids[i]);
    std::string snap;
    for (const auto& [id, file] : snapshots) {
      if (id == r.id) snap = file;
    }
    os << "    {";
    write_job_report_keys(os, r);
    os << ",\"snapshot\":\"" << obs::json_escape(snap) << "\",\"eq10\":";
    write_eq10(os, r.eq10);
    os << "}" << (i + 1 < ids.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  const std::string body = os.str();
  write_file_atomic(path, [&body](std::ostream& f) { f << body; });
}

}  // namespace g6::serve
