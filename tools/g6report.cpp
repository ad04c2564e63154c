// g6report — pretty-print or diff grape6 metrics JSON files.
//
//   g6report --in=run.json              breakdown table + every instrument
//   g6report --in=run.json --eq10-only  just the Eq 10 split
//   g6report --in=a.json --diff=b.json  absolute + percentage deltas, b vs a
//   g6report --in=a.json --diff=b.json --fail-over=5
//                                       exit 4 if any |delta| exceeds 5%
//
// Reads the "grape6-metrics-v1" schema written by --metrics-out
// (grape6_run, grape6_served, the benches) and prints the Eq 10 time
// breakdown plus the counters, gauges, histogram summaries and per-job
// attribution scopes. Diff mode is the comparison half of the
// bench-regression harness (scripts/bench_regress.py drives it in CI).
// Exits non-zero on a missing or malformed file.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/log.hpp"
#include "util/cli.hpp"

namespace {

using g6::obs::JsonValue;

void print_eq10(const JsonValue& eq10) {
  const double host = eq10.at("host_s").as_number();
  const double dma = eq10.at("dma_s").as_number();
  const double net = eq10.at("net_s").as_number();
  const double grape = eq10.at("grape_s").as_number();
  const double total_s = eq10.at("total_s").as_number();
  const double steps = eq10.at("steps").as_number();
  const double total = total_s > 0.0 ? total_s : 1.0;
  std::printf("Eq 10 breakdown (T = T_host + T_comm + T_GRAPE):\n");
  std::printf("  T_host  %12.6f s  (%5.1f%%)\n", host, 100.0 * host / total);
  std::printf("  T_comm  %12.6f s  (%5.1f%%)  [dma %.6f s, net %.6f s]\n",
              dma + net, 100.0 * (dma + net) / total, dma, net);
  std::printf("  T_GRAPE %12.6f s  (%5.1f%%)\n", grape, 100.0 * grape / total);
  std::printf("  T_total %12.6f s, %.0f steps (bottleneck: %s)\n", total_s,
              steps, eq10.at("bottleneck").as_string().c_str());
  if (steps > 0.0) {
    std::printf("  %.3f us per particle step\n", 1e6 * total_s / steps);
  }
}

bool is_fault_metric(const std::string& name) {
  return name.rfind("fault.", 0) == 0;
}

/// Reliability rollup: fault.* counters/gauges grouped in one section
/// (injected vs detected vs recovered reads as a reconciliation table),
/// excluded from the generic listings below.
void print_fault_summary(const JsonValue& doc) {
  const JsonValue* counters = doc.find("counters");
  const JsonValue* gauges = doc.find("gauges");
  bool any = false;
  const auto scan = [&](const JsonValue* obj) {
    if (obj == nullptr) return;
    for (const auto& [name, v] : obj->members()) {
      (void)v;
      if (is_fault_metric(name)) any = true;
    }
  };
  scan(counters);
  scan(gauges);
  if (!any) return;
  std::printf("\nfault summary:\n");
  for (const char* prefix : {"fault.injected.", "fault.detected.",
                             "fault.recovered."}) {
    if (counters == nullptr) break;
    for (const auto& [name, v] : counters->members()) {
      if (name.rfind(prefix, 0) == 0) {
        std::printf("  %-28s %20.0f\n", name.c_str(), v.as_number());
      }
    }
  }
  if (gauges != nullptr) {
    for (const auto& [name, v] : gauges->members()) {
      if (is_fault_metric(name)) {
        std::printf("  %-28s %20.6g\n", name.c_str(), v.as_number());
      }
    }
  }
}

bool is_exec_metric(const std::string& name) {
  return name.rfind("exec.", 0) == 0;
}

/// Execution-runtime rollup: pool task/steal counters plus the overlap
/// gauge (host seconds hidden inside the T_GRAPE window — work Eq 10 did
/// NOT charge to T_host because it ran under in-flight force chunks).
void print_exec_summary(const JsonValue& doc) {
  const JsonValue* counters = doc.find("counters");
  const JsonValue* gauges = doc.find("gauges");
  bool any = false;
  const auto scan = [&](const JsonValue* obj) {
    if (obj == nullptr) return;
    for (const auto& [name, v] : obj->members()) {
      (void)v;
      if (is_exec_metric(name)) any = true;
    }
  };
  scan(counters);
  scan(gauges);
  if (!any) return;
  std::printf("\nexec summary:\n");
  if (counters != nullptr) {
    for (const auto& [name, v] : counters->members()) {
      if (is_exec_metric(name)) {
        std::printf("  %-28s %20.0f\n", name.c_str(), v.as_number());
      }
    }
  }
  if (gauges != nullptr) {
    for (const auto& [name, v] : gauges->members()) {
      if (is_exec_metric(name)) {
        std::printf("  %-28s %20.6g\n", name.c_str(), v.as_number());
      }
    }
  }
  const JsonValue* g_overlap =
      gauges != nullptr ? gauges->find("exec.overlap.host_s") : nullptr;
  const JsonValue* eq10 = doc.find("eq10");
  if (g_overlap != nullptr && eq10 != nullptr) {
    const double grape = eq10->at("grape_s").as_number();
    if (grape > 0.0) {
      std::printf("  (overlap hides %.1f%% of T_GRAPE as host work)\n",
                  100.0 * g_overlap->as_number() / grape);
    }
  }
}

bool is_wire_metric(const std::string& name) {
  return name.rfind("wire.", 0) == 0;
}

/// Remote-serving rollup: wire.* transport counters (frames/bytes in and
/// out, connections, protocol errors), the live-connection and
/// subscriber gauges, and the request round-trip histogram, grouped in
/// one section and excluded from the generic listings below.
void print_wire_summary(const JsonValue& doc) {
  const JsonValue* counters = doc.find("counters");
  const JsonValue* gauges = doc.find("gauges");
  const JsonValue* hists = doc.find("histograms");
  bool any = false;
  const auto scan = [&](const JsonValue* obj) {
    if (obj == nullptr) return;
    for (const auto& [name, v] : obj->members()) {
      (void)v;
      if (is_wire_metric(name)) any = true;
    }
  };
  scan(counters);
  scan(gauges);
  scan(hists);
  if (!any) return;
  std::printf("\nwire summary:\n");
  if (counters != nullptr) {
    for (const auto& [name, v] : counters->members()) {
      if (is_wire_metric(name)) {
        std::printf("  %-28s %20.0f\n", name.c_str(), v.as_number());
      }
    }
  }
  if (gauges != nullptr) {
    for (const auto& [name, v] : gauges->members()) {
      if (is_wire_metric(name)) {
        std::printf("  %-28s %20.6g\n", name.c_str(), v.as_number());
      }
    }
  }
  if (hists != nullptr) {
    for (const auto& [name, h] : hists->members()) {
      if (is_wire_metric(name)) {
        std::printf("  %-28s count %-8.0f mean %.4g s  max %.4g s\n",
                    name.c_str(), h.at("count").as_number(),
                    h.at("mean").as_number(), h.at("max").as_number());
      }
    }
  }
  const JsonValue* in = counters != nullptr
                            ? counters->find("wire.frames_in")
                            : nullptr;
  const JsonValue* req = counters != nullptr
                             ? counters->find("wire.requests")
                             : nullptr;
  if (in != nullptr && req != nullptr && req->as_number() > 0.0) {
    std::printf("  (%.0f frames in for %.0f requests)\n", in->as_number(),
                req->as_number());
  }
}

/// Per-job attribution ledgers (the "scopes" section): one block per
/// scope with its mirrored counters.
void print_scopes(const JsonValue& doc) {
  const JsonValue* scopes = doc.find("scopes");
  if (scopes == nullptr || scopes->members().empty()) return;
  std::printf("\nper-job scopes:\n");
  for (const auto& [name, scope] : scopes->members()) {
    std::printf("  %s (job %.0f, %s):\n", name.c_str(),
                scope.at("job").as_number(),
                scope.at("class").as_string().c_str());
    for (const auto& [cname, v] : scope.at("counters").members()) {
      std::printf("    %-28s %18.0f\n", cname.c_str(), v.as_number());
    }
  }
}

/// One row of the diff table; `scale` pretty-prints integers vs seconds.
struct DiffRow {
  std::string name;
  double a = 0.0;
  double b = 0.0;
};

void collect_rows(const JsonValue& doc, std::vector<DiffRow>& rows,
                  bool is_a) {
  const auto merge = [&rows, is_a](const std::string& name, double v) {
    for (DiffRow& r : rows) {
      if (r.name == name) {
        (is_a ? r.a : r.b) = v;
        return;
      }
    }
    DiffRow r;
    r.name = name;
    (is_a ? r.a : r.b) = v;
    rows.push_back(std::move(r));
  };
  if (const JsonValue* counters = doc.find("counters")) {
    for (const auto& [name, v] : counters->members()) {
      merge("counter " + name, v.as_number());
    }
  }
  if (const JsonValue* gauges = doc.find("gauges")) {
    for (const auto& [name, v] : gauges->members()) {
      merge("gauge " + name, v.as_number());
    }
  }
  if (const JsonValue* hists = doc.find("histograms")) {
    for (const auto& [name, h] : hists->members()) {
      merge("hist.count " + name, h.at("count").as_number());
      merge("hist.mean " + name, h.at("mean").as_number());
    }
  }
  if (const JsonValue* eq10 = doc.find("eq10")) {
    for (const char* field : {"host_s", "dma_s", "net_s", "grape_s",
                              "total_s", "steps", "blocksteps"}) {
      if (const JsonValue* v = eq10->find(field)) {
        merge(std::string("eq10 ") + field, v->as_number());
      }
    }
  }
}

/// Tabulate b vs a; returns the worst |percentage| delta seen (infinity
/// when a metric appears or disappears entirely).
double print_diff(const JsonValue& a, const JsonValue& b) {
  std::vector<DiffRow> rows;
  collect_rows(a, rows, /*is_a=*/true);
  collect_rows(b, rows, /*is_a=*/false);

  std::printf("%-42s %16s %16s %14s %9s\n", "metric", "a", "b", "delta",
              "pct");
  double worst = 0.0;
  std::size_t unchanged = 0;
  for (const DiffRow& r : rows) {
    const double delta = r.b - r.a;
    if (delta == 0.0) {
      ++unchanged;
      continue;
    }
    double pct = 0.0;
    if (r.a != 0.0) {
      pct = 100.0 * delta / std::fabs(r.a);
    } else {
      pct = std::numeric_limits<double>::infinity();
    }
    if (std::fabs(pct) > worst) worst = std::fabs(pct);
    std::printf("%-42s %16.6g %16.6g %+14.6g %+8.2f%%\n", r.name.c_str(), r.a,
                r.b, delta, pct);
  }
  std::printf("(%zu metric(s) unchanged, %zu changed)\n", unchanged,
              rows.size() - unchanged);
  return worst;
}

JsonValue load_metrics(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  JsonValue doc = JsonValue::parse(buf.str());
  const JsonValue* schema = doc.find("schema");
  if (schema == nullptr || schema->as_string() != "grape6-metrics-v1") {
    throw std::runtime_error(path + ": not a grape6-metrics-v1 file");
  }
  return doc;
}

void print_instruments(const JsonValue& doc) {
  const auto print_object = [](const JsonValue* obj, const char* header,
                               const char* fmt) {
    if (obj == nullptr) return;
    bool printed_header = false;
    for (const auto& [name, v] : obj->members()) {
      // Shown in the fault / exec / wire summaries above.
      if (is_fault_metric(name) || is_exec_metric(name) ||
          is_wire_metric(name)) {
        continue;
      }
      if (!printed_header) {
        std::printf("\n%s:\n", header);
        printed_header = true;
      }
      std::printf(fmt, name.c_str(), v.as_number());
    }
  };
  print_object(doc.find("counters"), "counters", "  %-28s %20.0f\n");
  print_object(doc.find("gauges"), "gauges", "  %-28s %20.6g\n");
  const JsonValue* hists = doc.find("histograms");
  if (hists != nullptr && !hists->members().empty()) {
    bool printed_header = false;
    for (const auto& [name, h] : hists->members()) {
      if (is_wire_metric(name)) continue;  // wire summary above
      if (!printed_header) {
        std::printf("\nhistograms:\n");
        std::printf("  %-28s %10s %12s %12s %12s %12s\n", "name", "count",
                    "mean", "stddev", "min", "max");
        printed_header = true;
      }
      std::printf("  %-28s %10.0f %12.4g %12.4g %12.4g %12.4g\n", name.c_str(),
                  h.at("count").as_number(), h.at("mean").as_number(),
                  h.at("stddev").as_number(), h.at("min").as_number(),
                  h.at("max").as_number());
    }
  }
}

}  // namespace

int main(int argc, char** argv) try {
  g6::Cli cli(argc, argv);
  const bool eq10_only =
      cli.get_bool("eq10-only", false, "print only the Eq 10 breakdown");
  const std::string path = cli.get_string("in", "", "metrics JSON file");
  const std::string diff_path = cli.get_string(
      "diff", "", "second metrics JSON: print deltas vs --in (\"\" = off)");
  const double fail_over = cli.get_double(
      "fail-over", 0.0,
      "with --diff: exit 4 when any |delta| exceeds this percentage (0 = "
      "report only)");
  if (cli.finish()) return 0;
  if (path.empty()) {
    g6::obs::log_error(
        "usage: g6report --in=<metrics.json> [--eq10-only] "
        "[--diff=<other.json> [--fail-over=PCT]]");
    return 2;
  }

  const JsonValue doc = load_metrics(path);

  if (!diff_path.empty()) {
    const JsonValue other = load_metrics(diff_path);
    const double worst = print_diff(doc, other);
    if (fail_over > 0.0 && worst > fail_over) {
      g6::obs::log_error("diff exceeds --fail-over=%g%% (worst %.2f%%)",
                         fail_over, worst);
      return 4;
    }
    return 0;
  }

  const JsonValue* eq10 = doc.find("eq10");
  if (eq10 != nullptr) {
    print_eq10(*eq10);
  } else {
    std::printf("(no eq10 section)\n");
  }
  if (!eq10_only) {
    print_fault_summary(doc);
    print_exec_summary(doc);
    print_wire_summary(doc);
    print_scopes(doc);
    print_instruments(doc);
  }
  return 0;
} catch (const std::exception& e) {
  g6::obs::log_error("%s", e.what());
  return 1;
}
