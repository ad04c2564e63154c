#include "serve/job.hpp"

#include "nbody/diagnostics.hpp"
#include "nbody/king.hpp"
#include "nbody/models.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace g6::serve {

bool known_model(const std::string& name) {
  return name == "plummer" || name == "king" || name == "uniform" ||
         name == "disk" || name == "bhbinary" || name == "hernquist";
}

ParticleSet build_model(const JobSpec& spec) {
  G6_REQUIRE_MSG(known_model(spec.model), "unknown job model");
  Rng rng(spec.seed);
  if (spec.model == "plummer") return make_plummer(spec.n, rng);
  if (spec.model == "king") return make_king(spec.n, spec.w0, rng);
  if (spec.model == "uniform") return make_uniform_sphere(spec.n, rng);
  if (spec.model == "disk") return make_planetesimal_disk(spec.n, rng);
  if (spec.model == "bhbinary") return make_plummer_with_bh_binary(spec.n, rng);
  return make_hernquist(spec.n, rng);
}

namespace {

MachineConfig slice_config(const MachineConfig& arch, std::size_t boards) {
  // A job's engine is one host driving its lease: the chip
  // microarchitecture of the shared machine, boards_per_host = lease size.
  MachineConfig mc = arch;
  mc.boards_per_host = boards;
  return mc;
}

HermiteConfig hermite_config(const JobSpec& spec) {
  HermiteConfig cfg;
  cfg.eta = spec.eta;
  return cfg;
}

}  // namespace

JobRuntime::JobRuntime(const JobSpec& spec, const MachineConfig& arch,
                       std::size_t boards)
    : spec_(spec) {
  G6_REQUIRE(boards >= 1);
  engine_ = std::make_unique<GrapeForceEngine>(slice_config(arch, boards),
                                               NumberFormats{}, spec_.eps);
  const ParticleSet initial = build_model(spec_);
  e0_ = compute_energy(initial.bodies(), spec_.eps).total();
  integ_ = std::make_unique<HermiteIntegrator>(initial, *engine_,
                                               hermite_config(spec_));
}

JobRuntime::JobRuntime(const JobSpec& spec, const MachineConfig& arch,
                       std::size_t boards, const SavedJob& saved)
    : spec_(spec), e0_(saved.e0) {
  G6_REQUIRE(boards >= 1);
  engine_ = std::make_unique<GrapeForceEngine>(slice_config(arch, boards),
                                               NumberFormats{}, spec_.eps);
  integ_ = std::make_unique<HermiteIntegrator>(saved.state, *engine_,
                                               hermite_config(spec_));
  // The exponent cache must come back AFTER construction: load_particles
  // inside the restore constructor resets it (same rule as --resume).
  engine_->exponents() = saved.exponents;
}

std::size_t JobRuntime::run_quantum(std::size_t max_blocksteps) {
  std::size_t ran = 0;
  while (ran < max_blocksteps && integ_->next_block_time() <= spec_.t_end) {
    integ_->step();
    ++ran;
  }
  return ran;
}

SavedJob JobRuntime::save() const {
  SavedJob s;
  s.state = integ_->save_state();
  s.exponents = engine_->exponents();
  s.e0 = e0_;
  return s;
}

}  // namespace g6::serve
