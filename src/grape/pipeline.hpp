#pragma once
// The force-calculation pipeline (Fig 8) and the predictor pipeline of the
// GRAPE-6 chip, emulated operation-by-operation in the hardware number
// formats (pipeline.cpp).
//
// Dataflow per interaction (Eqs 1-3):
//   dx      = x_j - x_i                  exact 64-bit fixed-point subtract
//   dr, dv  -> pipeline float            one rounding at the conversion
//   r2      = dx^2+dy^2+dz^2+eps^2       pipeline float, correctly rounded
//   rinv    = rsqrt(r2), rinv2, m*rinv3  pipeline float
//   acc,jerk,pot contributions           pipeline float
//   accumulation                          block floating point, exact
//
// The op chain is written once, over the value type. Chip::run_pass hands
// the whole i-block to interact_block(), which does what the chip's
// broadcast does: W i-slots sit in the lanes and each predicted j, in
// ascending order, is splatted to them; the chain runs with LaneFormat's
// lane ops (which defer the format's range check into a per-lane flag)
// and the seven BFP adds run in the lanes too (LaneAccumulator). Two
// chains run op by op per step — two lane groups on one j, or a lone
// group on two j — so each hides the other's latency. W is 4 in an
// x86-64-v3 function when the CPU runs one (one cached check), else 2 at
// the baseline ISA. A lane flagged at some j (a result that flushes,
// saturates, is inf or NaN, or a negative r2) takes that j alone through
// the scalar instantiation, interact(), in place; interact() is also the
// reference tests compare the kernel against.
//
// The block floating-point accumulators make the total independent of the
// order and partitioning of the sum (paper Sec 3.4) — the property tested
// in tests/grape/bfp_invariance_test.cpp.

#include <cstdint>
#include <span>
#include <vector>

#include "hw/accumulators.hpp"
#include "hw/formats.hpp"
#include "hw/jstore.hpp"
#include "util/fixedpoint.hpp"

namespace g6 {

/// Per-i-particle neighbor hardware: a bounded on-chip index FIFO (the
/// real chip raises an overflow flag when the list no longer fits and the
/// host retries with a smaller radius) plus the nearest-neighbor register.
struct HwNeighborRecorder {
  std::vector<std::uint32_t> indices;
  std::size_t capacity = 256;
  bool overflow = false;
  std::uint32_t nearest = 0;
  double nearest_r2 = 0.0;
  bool has_nearest = false;

  /// Re-arm for a new pass. Keeps the index heap: a recorder that lives
  /// across passes (board/module scratch, engine neighbor banks) never
  /// reallocates once it has grown to its working size.
  void reset(std::size_t cap) {
    indices.clear();
    capacity = cap;
    overflow = false;
    has_nearest = false;
    nearest_r2 = 0.0;
  }

  /// Pre-size the FIFO backing store so a whole block's record() calls
  /// are allocation-free from the first pass on.
  void reserve(std::size_t n) { indices.reserve(n); }

  void record(std::uint32_t idx, double r2, double h2) {
    if (!has_nearest || r2 < nearest_r2) {
      nearest_r2 = r2;
      nearest = idx;
      has_nearest = true;
    }
    if (r2 < h2) {
      if (indices.size() < capacity) {
        indices.push_back(idx);
      } else {
        overflow = true;
      }
    }
  }

  /// Merge another chip/board's recorder (reduction network).
  void merge(const HwNeighborRecorder& o) {
    overflow = overflow || o.overflow;
    for (std::uint32_t idx : o.indices) {
      if (indices.size() < capacity) {
        indices.push_back(idx);
      } else {
        overflow = true;
        break;
      }
    }
    if (o.has_nearest && (!has_nearest || o.nearest_r2 < nearest_r2)) {
      nearest = o.nearest;
      nearest_r2 = o.nearest_r2;
      has_nearest = true;
    }
  }
};

/// On-chip predictor pipeline: evaluates Eqs (6)-(7) for a stored
/// j-particle in the (narrower) predictor format. The polynomial
/// correction is computed in floating point and added to the fixed-point
/// position exactly, as in the hardware.
class PredictorUnit {
 public:
  explicit PredictorUnit(const NumberFormats& fmt);

  /// Predicted j-particle ready for the force pipeline.
  struct Predicted {
    std::uint32_t index = 0;
    double mass = 0.0;
    std::int64_t pos[3] = {0, 0, 0};
    Vec3 vel;
  };

  /// One stored j-particle (BM_PredictorPipeline times it).
  Predicted predict(const StoredJParticle& j, double t) const;

  /// All stored j-particles predicted, column-wise — the input of
  /// interact_block(). Reused across passes, a batch performs no
  /// allocations after warm-up (resize keeps capacity).
  struct PredictedBatch {
    std::size_t count = 0;
    std::vector<std::uint32_t> index;
    std::vector<double> mass;
    std::vector<std::int64_t> pos[3];
    std::vector<double> vel[3];

    void resize(std::size_t n);
    /// Slot k gathered into / scattered from one predicted particle.
    Predicted at(std::size_t k) const;
    void set(std::size_t k, const Predicted& p);
  };

  /// The whole j-memory, two slots at a time with the lane ops (the same
  /// chain as predict()): out.at(k) == predict(j.get(k), t) bit-exactly.
  void predict_batch(const JStore& j, double t, PredictedBatch& out) const;

 private:
  NumberFormats fmt_;
  FixedPointCodec codec_;
  bool lanes_;  ///< LaneFormat supports the predictor and velocity formats
};

namespace test_hooks {
/// Test-only: make ForcePipelines built from now on run their kernel at
/// `width` lanes — 2, or 4 where host_lane_width() is 4 — so both kernels
/// can be checked on one host; 0 restores the default. Returns false and
/// changes nothing for a width this host cannot run. Not an option:
/// nothing outside the tests calls it.
bool force_lane_width(int width);
}  // namespace test_hooks

/// One physical force pipeline. Stateless except for the formats; the
/// chip drives it once per (virtual pipeline, j-particle) pair.
class ForcePipeline {
 public:
  explicit ForcePipeline(const NumberFormats& fmt);

  /// Accumulate the interaction of predicted j-particle `j` on i-particle
  /// `ip` into `out`. Skips the self-interaction by index compare. When
  /// `neighbors` is non-null the neighbor comparator runs alongside the
  /// force datapath (no extra cycles, as in hardware). The scalar form:
  /// interact_block()'s path for a flagged lane, the reference tests
  /// compare the kernel against, and what BM_PipelineInteraction times.
  void interact(const PredictorUnit::Predicted& j, const IParticlePacket& ip,
                double eps2, HwAccumulators& out,
                HwNeighborRecorder* neighbors = nullptr) const;

  /// The chip pass's kernel: the whole predicted j-range, in ascending
  /// order, on every i-slot of `iblock`, lane_width() slots at a time (file
  /// comment). out[k] and, when `neighbors` is non-empty, neighbors[k]
  /// belong to iblock[k]. The BFP accumulator words, overflow flags and
  /// neighbor lists are bit-identical to calling interact() j-by-j
  /// (tests/grape/pipeline_crosscheck_test.cpp).
  void interact_block(const PredictorUnit::PredictedBatch& j,
                      std::span<const IParticlePacket> iblock, double eps2,
                      std::span<HwAccumulators> out,
                      std::span<HwNeighborRecorder> neighbors = {}) const;

  /// The kernel's lane width, fixed when the pipeline is built: 4 where
  /// host_lane_width() is 4, else 2.
  int lane_width() const { return wide_ ? 4 : 2; }

 private:
  NumberFormats fmt_;
  FixedPointCodec codec_;
  bool exact_;  ///< wide format: skip per-op rounding (A/B mode)
  bool wide_;   ///< the kernel runs four lanes
  bool lanes_;  ///< LaneFormat supports the pipeline format
};

}  // namespace g6
