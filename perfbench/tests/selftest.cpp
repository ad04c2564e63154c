// Self-tests of the benchmark's own machinery: the seeded job stream, the
// tail-percentile helper, and the output checks. Exits non-zero on the
// first failed expectation; `python3 perfbench/run.py --selftest` runs it.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench.hpp"
#include "nbody/models.hpp"
#include "util/rng.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

bool same_stream(const std::vector<perfbench::StreamJob>& a,
                 const std::vector<perfbench::StreamJob>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].pool != b[i].pool || a[i].priority != b[i].priority ||
        a[i].autoscale != b[i].autoscale) {
      return false;
    }
  }
  return true;
}

void test_stream() {
  using perfbench::ServeShape;
  const auto a = perfbench::tenant_stream(7, 2, 100);
  const auto b = perfbench::tenant_stream(7, 2, 100);
  expect(same_stream(a, b), "same seed gives the same job stream");
  expect(!same_stream(a, perfbench::tenant_stream(8, 2, 100)),
         "another seed gives another order");
  expect(!same_stream(a, perfbench::tenant_stream(7, 3, 100)),
         "tenants get different streams");

  // Every cycle of kJobPool jobs covers the whole pool exactly once, so all
  // seeds run the same multiset of jobs.
  bool covers = true;
  for (std::size_t c = 0; c + ServeShape::kJobPool <= a.size();
       c += ServeShape::kJobPool) {
    std::vector<int> seen(ServeShape::kJobPool, 0);
    for (std::size_t j = c; j < c + ServeShape::kJobPool; ++j) ++seen[a[j].pool];
    for (const int s : seen) covers = covers && s == 1;
  }
  expect(covers, "each stream cycle covers the pool once");

  std::size_t interactive = 0;
  std::size_t autoscale = 0;
  for (const auto& j : a) {
    interactive += j.priority == g6::serve::Priority::kInteractive;
    autoscale += j.autoscale;
  }
  expect(interactive == 25, "a quarter of the jobs are interactive");
  expect(autoscale == 33 || autoscale == 34,
         "a third of the jobs carry autoscaling bounds");
  const g6::serve::JobSpec s = perfbench::stream_spec(a[0], "x");
  expect(s.n == ServeShape::kN && s.name == "x" && s.boards == 1,
         "stream specs carry the pool shape");
}

void test_tail() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  perfbench::Tail t = perfbench::tail_percentile(v);
  expect(t.value == 90.0 && t.beyond == 10 && t.samples == 100 &&
             t.percentile == 90.0,
         "100 samples: p90 with 10 beyond");

  v.assign({5, 1, 4, 2, 3, 9, 8, 7, 6, 10, 11, 12});
  t = perfbench::tail_percentile(v);
  expect(t.value == 2.0 && t.beyond == 10, "12 samples: 2nd smallest");

  v.assign({3, 1, 2});
  t = perfbench::tail_percentile(v);
  expect(t.value == 3.0 && t.beyond == 0,
         "too few samples: the maximum, flagged by beyond");
  expect(perfbench::median({3, 1, 2, 10}) == 2.5, "even-count median");
}

void test_output_check() {
  g6::Rng rng(3);
  g6::ParticleSet s = g6::make_plummer(16, rng);
  const std::string ref = perfbench::snapshot_digest(s, 0.25);
  expect(perfbench::snapshot_digest(s, 0.25) == ref, "digest is repeatable");
  g6::ParticleSet bad = s;
  bad[5].pos.x = std::nextafter(bad[5].pos.x, 1.0);
  expect(perfbench::snapshot_digest(bad, 0.25) != ref,
         "a one-ulp change trips the digest");
  expect(perfbench::snapshot_digest(s, 0.5) != ref,
         "a different time trips the digest");

  // A corrupted committed reference must fail the run, never report.
  perfbench::References refs =
      perfbench::load_references(PERFBENCH_REFERENCES);
  expect(refs.config == perfbench::reference_config(),
         "committed references match the benchmark's shape");
  refs.integrate[1 % refs.integrate.size()].digest = "0000000000000000";
  perfbench::Options opt;
  opt.workload = "integrate";
  opt.seed = 1;
  opt.seconds = 0.05;
  opt.work_dir = PERFBENCH_WORK;
  const perfbench::Result res = perfbench::run_integrate(opt, refs);
  expect(!res.correct() && res.failed() == res.attempted(),
         "a corrupted digest fails every segment");
  expect(res.json().find("\"correct\": false") != std::string::npos,
         "the result line says correct: false");
}

}  // namespace

int main() {
  test_stream();
  test_tail();
  test_output_check();
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
