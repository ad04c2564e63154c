#include <fcntl.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "fault/checkpoint.hpp"
#include "fault/checksum.hpp"
#include "grape/chip.hpp"
#include "nbody/models.hpp"
#include "nbody/snapshot.hpp"
#include "obs/clock.hpp"
#include "obs/json.hpp"
#include "util/rng.hpp"

namespace perfbench {

using g6::obs::monotonic_seconds;

// --- Result ------------------------------------------------------------------

void Result::set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

void Result::fail(const std::string& what) { failures_.push_back(what); }

void Result::copy_metrics(const Result& other, const std::string& prefix) {
  for (const Metric& m : other.metrics_) {
    if (m.name.rfind(prefix, 0) == 0) set(m.name, m.value, m.unit);
  }
}

std::string Result::json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    char num[64];
    // %.17g round-trips the double: every digit as measured.
    std::snprintf(num, sizeof num, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << num
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

// --- order statistics ----------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

Tail tail_percentile(std::vector<double> v, std::size_t min_beyond) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  // Sorted index k has n-1-k samples above it; the highest k that keeps
  // min_beyond of them is n-1-min_beyond.
  const std::size_t k = n > min_beyond ? n - 1 - min_beyond : n - 1;
  t.value = v[k];
  t.beyond = n - 1 - k;
  t.percentile = 100.0 * static_cast<double>(k + 1) / static_cast<double>(n);
  return t;
}

// --- digests -------------------------------------------------------------------

namespace {

std::string hex16(std::uint64_t x) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(x));
  return buf;
}

}  // namespace

std::string snapshot_digest(const g6::ParticleSet& set, double t) {
  std::ostringstream os;
  g6::write_snapshot(os, set, t);
  g6::fault::Fnv1a64 h;
  h.fold(std::string_view(os.str()));
  return hex16(h.digest());
}

std::string double_bits(double x) { return hex16(std::bit_cast<std::uint64_t>(x)); }

// --- job stream ----------------------------------------------------------------

namespace {

/// splitmix64: a fixed, platform-independent stream for the shuffles.
std::uint64_t splitmix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

g6::ParticleSet integrate_model(std::size_t variant) {
  g6::Rng rng(IntegrateShape::kModelSeed);
  const g6::ParticleSet base = g6::make_plummer(IntegrateShape::kN, rng);
  std::vector<g6::Body> bodies(base.bodies().begin(), base.bodies().end());
  std::uint64_t state = variant;
  for (std::size_t i = bodies.size() - 1; variant != 0 && i > 0; --i) {
    std::swap(bodies[i], bodies[splitmix(state) % (i + 1)]);
  }
  return g6::ParticleSet(std::move(bodies));
}

unsigned pool_ic_seed(std::size_t k) { return static_cast<unsigned>(1001 + k); }

g6::serve::JobSpec pool_spec(std::size_t k) {
  g6::serve::JobSpec s;
  s.model = "plummer";
  s.n = ServeShape::kN;
  s.t_end = ServeShape::kTEnd;
  s.seed = pool_ic_seed(k);
  s.boards = 1;
  return s;
}

std::vector<StreamJob> tenant_stream(std::uint64_t seed, std::size_t tenant,
                                     std::size_t count) {
  std::uint64_t state = seed * 0x100000001b3ULL + tenant + 1;
  std::vector<StreamJob> out;
  out.reserve(count);
  std::vector<std::size_t> order(ServeShape::kJobPool);
  while (out.size() < count) {
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[splitmix(state) % (i + 1)]);
    }
    for (std::size_t j = 0; j < order.size() && out.size() < count; ++j) {
      const std::size_t pos = out.size() + tenant;
      StreamJob job;
      job.pool = order[j];
      if (pos % 4 == 1) job.priority = g6::serve::Priority::kInteractive;
      job.autoscale = pos % 3 == 2;
      out.push_back(job);
    }
  }
  return out;
}

g6::serve::JobSpec stream_spec(const StreamJob& job, const std::string& name) {
  g6::serve::JobSpec s = pool_spec(job.pool);
  s.name = name;
  s.priority = job.priority;
  if (job.autoscale) {
    s.boards_min = 1;
    s.boards_max = 2;
  }
  return s;
}

// --- references ----------------------------------------------------------------

std::string reference_config() {
  std::ostringstream os;
  os << "integrate n=" << IntegrateShape::kN
     << " boards=" << IntegrateShape::kBoards
     << " variants=" << IntegrateShape::kVariants
     << " t_segment=" << double_bits(IntegrateShape::kTSegment)
     << " eps=" << double_bits(IntegrateShape::kEps)
     << " model_seed=" << IntegrateShape::kModelSeed
     << "; serve pool=" << ServeShape::kJobPool << " n=" << ServeShape::kN
     << " t_end=" << double_bits(ServeShape::kTEnd);
  return os.str();
}

References load_references(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read references: " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  const g6::obs::JsonValue doc = g6::obs::JsonValue::parse(ss.str());
  References r;
  r.config = doc.at("config").as_string();
  for (const g6::obs::JsonValue& v : doc.at("integrate").items()) {
    IntegrateRef ir;
    ir.variant = static_cast<std::size_t>(v.at("variant").as_number());
    ir.digest = v.at("digest").as_string();
    ir.grape_virtual_s_bits = v.at("grape_virtual_s_bits").as_string();
    ir.interactions = std::stoull(v.at("interactions").as_string());
    r.integrate.push_back(ir);
  }
  for (const g6::obs::JsonValue& v : doc.at("serve_pool").items()) {
    r.serve_pool.push_back(v.at("digest").as_string());
  }
  return r;
}

void save_references(const std::string& path, const References& refs) {
  std::ofstream out(path);
  out << "{\n  \"schema\": \"g6perfbench-references-v1\",\n  \"config\": \""
      << g6::obs::json_escape(refs.config) << "\",\n  \"integrate\": [\n";
  for (std::size_t i = 0; i < refs.integrate.size(); ++i) {
    const IntegrateRef& r = refs.integrate[i];
    out << "    {\"variant\": " << r.variant << ", \"digest\": \""
        << r.digest << "\", \"grape_virtual_s_bits\": \""
        << r.grape_virtual_s_bits << "\", \"interactions\": \""
        << r.interactions << "\"}" << (i + 1 < refs.integrate.size() ? "," : "")
        << "\n";
  }
  out << "  ],\n  \"serve_pool\": [\n";
  for (std::size_t k = 0; k < refs.serve_pool.size(); ++k) {
    out << "    {\"ic_seed\": " << pool_ic_seed(k) << ", \"digest\": \""
        << refs.serve_pool[k] << "\"}"
        << (k + 1 < refs.serve_pool.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  if (!out) throw std::runtime_error("cannot write references: " + path);
}

// --- process probes ------------------------------------------------------------

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

/// Cores this process may run on (what `nproc` reports).
unsigned hardware_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

}  // namespace

std::string require_disk_dir(const std::string& dir) {
  std::filesystem::create_directories(dir);
  struct statfs sf{};
  if (statfs(dir.c_str(), &sf) != 0) {
    throw std::runtime_error("statfs failed on " + dir);
  }
  const auto magic = static_cast<unsigned long>(sf.f_type);
  switch (magic) {
    case 0x01021994UL:
      throw std::runtime_error(dir + " is on tmpfs; durable files need a disk");
    case 0x858458f6UL:
      throw std::runtime_error(dir + " is on ramfs; durable files need a disk");
    case 0xEF53UL: return "ext4";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x794c7630UL: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "fs-0x%lx", magic);
      return buf;
    }
  }
}

std::uint64_t file_bytes(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

void copy_file(const std::string& from, const std::string& to) {
  std::filesystem::copy_file(from, to,
                             std::filesystem::copy_options::overwrite_existing);
  // Flush the copy now: otherwise the first fsync on it (recovery appends
  // a record) writes the whole file back inside the timed region.
  const int fd = ::open(to.c_str(), O_RDONLY);
  if (fd < 0 || ::fsync(fd) != 0) {
    if (fd >= 0) ::close(fd);
    throw std::runtime_error("cannot flush " + to);
  }
  ::close(fd);
}

void reset_dir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

// --- layer probes -------------------------------------------------------------

/// ns per pair interaction of Chip::run_pass on this run's own j-set,
/// with i-blocks of the run's mean block size.
double kernel_ns_per_interaction(g6::GrapeForceEngine& engine,
                                 const g6::HermiteIntegrator& integ, double eps,
                                 double mean_block) {
  g6::Chip& chip = engine.chip_flat(0);
  const std::size_t block = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::lround(mean_block)), 1,
      chip.i_parallelism());
  std::vector<g6::IParticlePacket> packets;
  std::vector<g6::BlockExponents> exps;
  for (std::size_t k = 0; k < block; ++k) {
    const g6::JParticle& p = integ.particle(k);
    g6::PredictedState ps;
    ps.pos = p.pos;
    ps.vel = p.vel;
    ps.mass = p.mass;
    ps.index = static_cast<std::uint32_t>(k);
    packets.push_back(engine.make_packet(ps));
    exps.push_back(engine.exponents()[k]);
  }
  std::vector<g6::HwAccumulators> out(block);
  const double eps2 = eps * eps;
  std::uint64_t passes = 0;
  const double t0 = monotonic_seconds();
  double t1 = t0;
  while (t1 - t0 < 0.25) {
    for (std::size_t k = 0; k < block; ++k) out[k].reset(exps[k]);
    chip.run_pass(integ.time(), packets, eps2, out);
    ++passes;
    t1 = monotonic_seconds();
  }
  const double pairs = static_cast<double>(passes * block * chip.j_count());
  return pairs > 0 ? 1e9 * (t1 - t0) / pairs : 0.0;
}

/// Median wall time of a rotating checkpoint write of `state`.
double checkpoint_write_s(const std::string& path, const g6::HermiteState& state,
                          const std::vector<g6::BlockExponents>& exps) {
  g6::fault::RunCheckpoint cp;
  cp.run_tag = "perfbench checkpoint probe";
  cp.state = state;
  cp.exponents = exps;
  std::vector<double> t;
  for (int i = 0; i < 7; ++i) {
    const double a = monotonic_seconds();
    g6::fault::save_checkpoint_rotating(path, cp);
    t.push_back(monotonic_seconds() - a);
  }
  return median(t);
}

void require_fits(const std::string& what, std::size_t threads,
                  std::size_t connections) {
  const unsigned cores = hardware_threads();
  if (threads > cores || connections > cores) {
    throw std::runtime_error(
        what + ": " + std::to_string(threads) + " threads and " +
        std::to_string(connections) + " connections exceed the " +
        std::to_string(cores) + " available cores");
  }
}

}  // namespace perfbench
