#pragma once
// JobRuntime — one admitted job's live simulation between quanta.
//
// INTERNAL to src/serve (g6lint serve-isolation). A runtime owns the
// job's private emulated hardware slice (a GrapeForceEngine sized to its
// lease) and its Hermite integrator, and advances them a bounded number
// of blocksteps per scheduling quantum. Cooperative preemption exists
// only at quantum boundaries, so the integrator state a preempted or
// revoked job carries forward is always a clean blockstep-boundary state.
//
// Determinism: a job's trajectory depends only on its spec (ICs from
// spec.seed, engine from the lease *size*). Quantum segmentation, which
// physical boards back the lease, and which neighbors run alongside never
// enter the force computation, so a job's snapshot is bit-identical to
// the same spec run standalone — the property tests/serve and the
// serve_identity ctest assert.

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "grape/engine.hpp"
#include "hermite/integrator.hpp"
#include "nbody/particle.hpp"
#include "serve/types.hpp"

namespace g6::serve {

/// Model names JobSpec::model accepts (the grape6_run set).
bool known_model(const std::string& name);

/// Initial conditions for a job (deterministic in spec.seed).
ParticleSet build_model(const JobSpec& spec);

/// Blockstep-boundary state captured at every quantum end — what a job
/// whose lease was revoked resumes from, bit-identically. Same content as
/// a fault::RunCheckpoint (integrator state + the engine's BFP exponent
/// cache), kept in memory instead of on disk.
struct SavedJob {
  HermiteState state;
  std::vector<BlockExponents> exponents;
  double e0 = 0.0;  ///< initial total energy of the run
};

class JobRuntime {
 public:
  /// Fresh start: ICs from spec.seed, engine with `boards` boards of the
  /// service's chip microarchitecture. Computes the initial forces (the
  /// integrator's startup step).
  JobRuntime(const JobSpec& spec, const MachineConfig& arch,
             std::size_t boards);

  /// Resume after a lease revocation: rebuild the engine (same board
  /// count, possibly different physical boards) and restore the
  /// integrator plus the exponent cache. The continued run is
  /// bit-identical to one that never lost its lease.
  JobRuntime(const JobSpec& spec, const MachineConfig& arch,
             std::size_t boards, const SavedJob& saved);

  /// Advance up to `max_blocksteps` blocksteps, never past the spec's
  /// t_end (same stopping rule as HermiteIntegrator::evolve). Returns the
  /// number of blocksteps run.
  std::size_t run_quantum(std::size_t max_blocksteps);

  /// True when the job has reached its horizon.
  bool done() const { return integ_->next_block_time() > spec_.t_end; }

  double time() const { return integ_->time(); }
  SavedJob save() const;

  double e0() const { return e0_; }
  const HermiteIntegrator& integrator() const { return *integ_; }
  const GrapeHostStats& grape_stats() const { return engine_->stats(); }
  ParticleSet state_now() const { return integ_->state_at_current_time(); }

 private:
  JobSpec spec_;
  std::unique_ptr<GrapeForceEngine> engine_;
  std::unique_ptr<HermiteIntegrator> integ_;
  double e0_ = 0.0;
};

}  // namespace g6::serve
