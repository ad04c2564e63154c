#pragma once
// Time-series sampling of registered instruments (docs/OBSERVABILITY.md).
//
// A MetricsSampler snapshots a fixed set of tracked counters/gauges into
// one row per tick. Ticks are LOGICAL — the serve scheduler samples once
// per round (grape6_served --timeseries-out) — never wall-clock driven:
// two identical runs must produce the same number of rows with the same
// deterministic series values, so export_determinism can diff the export
// (wall-clock columns like t_s, and schedule-dependent series like
// exec.steals, are exempted by value there, the way metric exports
// already exempt them).

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace g6::obs {

class Counter;
class Gauge;

/// Snapshot a registered instrument set into append-only sample rows;
/// export as "grape6-timeseries-v1" JSON. Thread-safe; in practice one
/// control thread ticks it.
class MetricsSampler {
 public:
  /// Register a global-registry counter/gauge by name (creates the
  /// instrument if needed). Idempotent; tracking order is export order.
  void track_counter(std::string_view name);
  void track_gauge(std::string_view name);

  /// Record one row: (tick, t_s, value of every tracked instrument).
  void sample();

  std::size_t instrument_count() const;
  std::size_t sample_count() const;

  /// Drop samples AND tracked instruments (tests / between services).
  void clear();

  /// Time-series JSON, schema "grape6-timeseries-v1".
  void write_json(std::ostream& os) const;

  /// The process-wide sampler the serve scheduler ticks.
  static MetricsSampler& global();

 private:
  struct Instrument {
    std::string name;
    bool is_gauge = false;
    const Counter* counter = nullptr;  // exactly one of counter/gauge set
    const Gauge* gauge = nullptr;
  };
  struct Row {
    std::uint64_t tick = 0;
    double t_s = 0.0;
    std::vector<double> values;  // parallel to instruments_
  };

  mutable Mutex mutex_;
  std::vector<Instrument> instruments_ G6_GUARDED_BY(mutex_);
  std::vector<Row> samples_ G6_GUARDED_BY(mutex_);
  std::uint64_t next_tick_ G6_GUARDED_BY(mutex_) = 0;
};

}  // namespace g6::obs
