#pragma once
// Shared pieces of the end-to-end benchmark (README.md in this
// directory): options, the result record printed as the last stdout
// line, order statistics, snapshot digests, the seeded job stream, the
// committed references, and the process probes (CPU time, peak RSS,
// filesystem type).
//
// Every timing goes through obs::monotonic_seconds and every thread
// through exec::ThreadPool, so this code follows the same raw-timing /
// raw-thread rules as the library.

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "grape/engine.hpp"
#include "hermite/integrator.hpp"
#include "nbody/particle.hpp"
#include "serve/types.hpp"

namespace perfbench {

// --- options and result ----------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string refs_path = "perfbench/references.json";
  std::string work_dir = ".bench_work";
};

/// One workload run: the last stdout line, schema fixed by BENCHMARK.json.
class Result {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// A failed output check: the run is not correct, whatever it measured.
  void fail(const std::string& what);
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void miss(std::uint64_t n = 1) { failed_ += n; }

  bool correct() const { return failures_.empty(); }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }
  /// Set every metric of `other` whose name starts with `prefix`.
  void copy_metrics(const Result& other, const std::string& prefix);
  /// {"correct":..,"attempted":..,"failed":..,"metrics":{..}} on one line.
  std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// --- order statistics ------------------------------------------------------

double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// The highest order statistic that still has `min_beyond` samples above
/// it. `percentile` is the share of samples at or below `value` (x100);
/// with too few samples the maximum is returned and `beyond` says so.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};
Tail tail_percentile(std::vector<double> v, std::size_t min_beyond = 10);

// --- digests ---------------------------------------------------------------

/// FNV-1a of the snapshot text (nbody/snapshot.hpp), as 16 hex digits:
/// equal digests mean byte-identical snapshot files.
std::string snapshot_digest(const g6::ParticleSet& set, double t);
/// Exact bit pattern of a double, as 16 hex digits.
std::string double_bits(double x);

// --- the integrate workload's shape ----------------------------------------

/// One Plummer model per run, integrated in fixed segments from its t = 0
/// checkpoint; the seed picks one of kVariants committed variants.
struct IntegrateShape {
  static constexpr std::size_t kN = 2048;
  static constexpr std::size_t kBoards = 2;
  static constexpr std::size_t kVariants = 8;
  static constexpr double kTSegment = 1.0 / 1024.0;
  static constexpr double kEps = 1.0 / 64.0;
  static constexpr unsigned kModelSeed = 2001;
  /// Exec pool parallelism: fixed, never from hardware or the environment.
  /// Spreading the chip passes over every core averages out the per-core
  /// speed swings a shared host imposes.
  static constexpr unsigned kThreads = 4;
};

/// Initial conditions of integrate variant `variant`: one fixed Plummer
/// realization with its bodies in a variant-shuffled order. Every variant
/// is the same physical system, so the work per segment barely moves with
/// the seed, but the chips see another j-order and round differently.
g6::ParticleSet integrate_model(std::size_t variant);

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupReps = 9;

// --- the seeded job stream (serve workloads) -------------------------------

/// Jobs every served stream draws from. Each tenant walks the whole pool
/// in a seed-shuffled order, cycle after cycle, so every seed runs the
/// same multiset of jobs in a different order.
struct ServeShape {
  static constexpr std::size_t kJobPool = 16;
  static constexpr std::size_t kN = 64;
  static constexpr double kTEnd = 0.25;
  static constexpr std::size_t kQuantum = 2;
  static constexpr std::size_t kBoards = 2;
  static constexpr std::size_t kTenants = 4;
  static constexpr std::uint64_t kCheckpointEvery = 4;
  /// Exec pool parallelism (the server loop is one of them): fixed. With
  /// the tenant thread and the server loop's watchdog that is 4 threads,
  /// and 4 connections.
  static constexpr unsigned kThreads = 2;
  /// Jobs per tenant per --seconds: sized so a run takes 0.7-1.1x
  /// --seconds on the 4-core host the benchmark was tuned on.
  static constexpr double kVolatileJobsPerSecond = 5.0;
  static constexpr double kDurableJobsPerSecond = 2.5;
};

/// IC seed of pool entry `k` (fixed: the pool's digests are committed).
unsigned pool_ic_seed(std::size_t k);
/// Job spec of pool entry `k`, before priority/autoscaling are applied.
g6::serve::JobSpec pool_spec(std::size_t k);

struct StreamJob {
  std::size_t pool = 0;
  g6::serve::Priority priority = g6::serve::Priority::kBatch;
  bool autoscale = false;
};
/// The first `count` jobs tenant `tenant` submits under `seed`: a quarter
/// interactive, a third with autoscaling bounds, pool order shuffled per
/// cycle by the seed.
std::vector<StreamJob> tenant_stream(std::uint64_t seed, std::size_t tenant,
                                     std::size_t count);
/// The JobSpec a stream entry submits as `name`.
g6::serve::JobSpec stream_spec(const StreamJob& job, const std::string& name);

// --- committed references --------------------------------------------------

/// One integrate input variant's reference segment.
struct IntegrateRef {
  std::size_t variant = 0;
  std::string digest;
  std::string grape_virtual_s_bits;
  std::uint64_t interactions = 0;
};

struct References {
  std::string config;  ///< fingerprint of the shapes the digests belong to
  std::vector<IntegrateRef> integrate;
  std::vector<std::string> serve_pool;  ///< digest per pool entry
};

/// Fingerprint of every constant the references depend on.
std::string reference_config();
References load_references(const std::string& path);
void save_references(const std::string& path, const References& refs);

// --- process probes --------------------------------------------------------

double process_cpu_seconds();
double peak_rss_mb();
/// Create `dir` if needed and return its filesystem type name; throws on
/// tmpfs/ramfs (durable files must reach a disk).
std::string require_disk_dir(const std::string& dir);
/// Size of a file in bytes (0 when absent).
std::uint64_t file_bytes(const std::string& path);
/// Copy `from` to `to` and fsync the copy.
void copy_file(const std::string& from, const std::string& to);
/// Remove `dir` and everything under it, then recreate it empty.
void reset_dir(const std::string& dir);

// --- layer probes (traced runs) -------------------------------------------

/// ns per pair interaction of the public Chip::run_pass on the engine's
/// own j-set (chip 0), with i-blocks of the run's mean block size.
double kernel_ns_per_interaction(g6::GrapeForceEngine& engine,
                                 const g6::HermiteIntegrator& integ, double eps,
                                 double mean_block);
/// Median wall time of fault::save_checkpoint_rotating on `state`.
double checkpoint_write_s(const std::string& path, const g6::HermiteState& state,
                          const std::vector<g6::BlockExponents>& exps);

/// Refuse a thread/connection layout that oversubscribes the machine.
void require_fits(const std::string& what, std::size_t threads,
                  std::size_t connections);

// --- workloads -------------------------------------------------------------

Result run_integrate(const Options& opt, const References& refs);
Result run_serve(const Options& opt, const References& refs, bool durable);

/// Recompute every committed reference from standalone integrations.
References compute_references();

}  // namespace perfbench
