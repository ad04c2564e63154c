// g6perfbench — the repository's end-to-end benchmark (README.md here).
//
//   g6perfbench --workload integrate|serve_volatile|serve_durable
//               --seed N --seconds S --trace 0|1
//               [--refs perfbench/references.json] [--work .bench_work]
//   g6perfbench --write-references perfbench/references.json
//
// Prints progress lines, then one JSON object as the last stdout line.
// A failed output check prints correct:false and exits 1.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"
#include "obs/log.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "g6perfbench: %s\nusage: g6perfbench --workload W --seed N "
               "--seconds S --trace 0|1 [--refs PATH] [--work DIR]\n"
               "       g6perfbench --write-references PATH\n",
               why.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) try {
  perfbench::Options opt;
  std::string write_refs;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::stoull(val);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(val);
    } else if (key == "--trace") {
      if (val != "0" && val != "1") usage("--trace takes 0 or 1");
      opt.trace = val == "1";
    } else if (key == "--refs") {
      opt.refs_path = val;
    } else if (key == "--work") {
      opt.work_dir = val;
    } else if (key == "--write-references") {
      write_refs = val;
    } else {
      usage("unknown argument " + key);
    }
  }

  // One line per finished job would cost the serve loop a write each;
  // fixed here so the environment cannot change what a run does.
  g6::obs::set_log_level(g6::obs::LogLevel::kWarn);

  if (!write_refs.empty()) {
    perfbench::save_references(write_refs, perfbench::compute_references());
    std::printf("wrote %s\n", write_refs.c_str());
    return 0;
  }
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");

  const perfbench::References refs = perfbench::load_references(opt.refs_path);
  if (refs.config != perfbench::reference_config()) {
    throw std::runtime_error("references were made for another shape: " +
                             refs.config);
  }
  perfbench::Result res;
  if (opt.workload == "integrate") {
    res = perfbench::run_integrate(opt, refs);
  } else if (opt.workload == "serve_volatile") {
    res = perfbench::run_serve(opt, refs, /*durable=*/false);
  } else if (opt.workload == "serve_durable") {
    res = perfbench::run_serve(opt, refs, /*durable=*/true);
  } else {
    usage("unknown workload '" + opt.workload + "'");
  }
  for (const std::string& f : res.failures()) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("%s\n", res.json().c_str());
  std::fflush(stdout);
  return res.correct() ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "g6perfbench: error: %s\n", e.what());
  return 1;
}
