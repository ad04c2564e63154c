#include "serve/service.hpp"

#include "serve/scheduler.hpp"
#include "util/check.hpp"

namespace g6::serve {

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

}  // namespace g6::serve
