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
// The op chain is written once, over the value type. The unit of the
// kernel is the processor module (board.hpp): its chips' j-memories are
// predicted in one batch (predict_batch, lanes running across chips), and
// interact_module() does what the module's broadcast does. W i-slots sit
// in the lanes, and each lane group is set up once per module pass; inside
// it the chips' predicted j run in chip order, each chip's ascending, each
// splatted to the lanes. The chain runs with LaneFormat's lane ops (which
// defer the format's range check into a per-lane flag) and the seven BFP
// adds run in the lanes too (LaneAccumulator). Each chip's partial starts
// at zero and, after its last j, merges into the module's lanes with the
// summation unit's add_overflows semantics, in chip order: the overflow
// flag depends on that order. Two chains run op by op per step — two
// lane groups on one j, or a lone group on two j — so each hides the
// other's latency. W is 4 in an x86-64-v3 function when the CPU runs one
// (one cached check), else 2 at the baseline ISA. A lane flagged at some
// j (a result that flushes, saturates, is inf or NaN, or a negative r2)
// takes that j alone through the scalar instantiation, interact(), in
// place; interact() is also the reference tests compare the kernel
// against.
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
    std::size_t taken = 0;
    record(idx, r2, h2, SIZE_MAX, taken);
  }

  /// record() through the FIFO of the chip this recorder sums: `fifo`
  /// entries deep, `taken` of them used by the chip's earlier j this
  /// pass. The same as recording into the chip's own recorder and
  /// merge()ing that into this one after its last j, so a module pass
  /// records its chips in chip order with no recorder per chip.
  void record(std::uint32_t idx, double r2, double h2, std::size_t fifo,
              std::size_t& taken) {
    if (!has_nearest || r2 < nearest_r2) {
      nearest_r2 = r2;
      nearest = idx;
      has_nearest = true;
    }
    if (r2 < h2) {
      if (taken >= fifo || indices.size() >= capacity) {
        overflow = true;
      } else {
        indices.push_back(idx);
      }
      if (taken < fifo) ++taken;
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

  /// The j-memories of a module's chips predicted, column-wise and
  /// chip-major — the input of interact_module(). Reused across passes, a
  /// batch performs no allocations after warm-up (resize keeps capacity).
  struct PredictedBatch {
    std::size_t count = 0;
    std::vector<std::size_t> end;  ///< chip c's j are [end[c - 1], end[c])
    std::vector<std::uint32_t> index;
    std::vector<double> mass;
    std::vector<std::int64_t> pos[3];
    std::vector<double> vel[3];

    void resize(std::size_t n);
    /// Slot k gathered into / scattered from one predicted particle.
    Predicted at(std::size_t k) const;
    void set(std::size_t k, const Predicted& p);
  };

  /// Every chip's j-memory in one batch, lane_width() slots at a time
  /// (two for a batch of one or two) with the lane ops — the same chain as
  /// predict() — the lanes running on across chip boundaries:
  /// out.at(k) == predict(j.get(s), t) bit-exactly for chip slot s at
  /// batch slot k. A flagged lane is predicted again with the scalar ops.
  void predict_batch(std::span<const JStore* const> chips, double t,
                     PredictedBatch& out) const;

  /// The batch's lane width, fixed when the unit is built, as
  /// ForcePipeline::lane_width() is.
  int lane_width() const { return wide_ ? 4 : 2; }

 private:
  NumberFormats fmt_;
  FixedPointCodec codec_;
  bool lanes_;  ///< LaneFormat supports the predictor and velocity formats
  bool wide_;   ///< the batch runs four lanes
};

namespace test_hooks {
/// Test-only: make ForcePipelines and PredictorUnits built from now on run
/// their kernels at `width` lanes — 2, or 4 where host_lane_width() is 4 —
/// so both kernels can be checked on one host; 0 restores the default.
/// Returns false and changes nothing for a width this host cannot run.
/// Not an option: nothing outside the tests calls it.
bool force_lane_width(int width);
}  // namespace test_hooks

/// Where interact_module() puts a module pass's accumulator words.
struct ModuleWords {
  /// Merged, as the module's summation unit does: slot k's words,
  /// overwritten with the chips' partials merged in chip order, each
  /// partial taken on exps[k].
  std::span<HwPartialWords> merged;
  std::span<const BlockExponents> exps;
  /// Or, with `merged` empty, per chip: chip c's partial for slot k in
  /// chips[c * n + k], which the caller reset on slot k's exponents;
  /// nothing is merged. A lone chip's pass, and the words the output-fault
  /// hook sees before a module merges them.
  std::span<HwAccumulators> chips;
};

/// One physical force pipeline. Stateless except for the formats; the
/// chip drives it once per (virtual pipeline, j-particle) pair.
class ForcePipeline {
 public:
  explicit ForcePipeline(const NumberFormats& fmt);

  /// Accumulate the interaction of predicted j-particle `j` on i-particle
  /// `ip` into `out`. Skips the self-interaction by index compare. When
  /// `neighbors` is non-null the neighbor comparator runs alongside the
  /// force datapath (no extra cycles, as in hardware). The scalar form:
  /// interact_module()'s path for a flagged lane, the reference tests
  /// compare the kernel against, and what BM_PipelineInteraction times.
  void interact(const PredictorUnit::Predicted& j, const IParticlePacket& ip,
                double eps2, HwAccumulators& out,
                HwNeighborRecorder* neighbors = nullptr) const;

  /// interact() with the neighbor record made through a chip FIFO
  /// `fifo` deep that has taken `taken` entries this pass
  /// (HwNeighborRecorder::record).
  void interact(const PredictorUnit::Predicted& j, const IParticlePacket& ip,
                double eps2, HwAccumulators& out, HwNeighborRecorder* neighbors,
                std::size_t fifo, std::size_t& taken) const;

  /// The module pass's kernel: each chip's predicted j-range of `j`, in
  /// chip order and ascending within a chip, on every i-slot of `iblock`,
  /// lane_width() slots at a time (file comment), into `out`. Each chip's
  /// partial starts at zero. When `neighbors` is non-empty, neighbors[k]
  /// belongs to iblock[k] and takes each chip's list through a chip FIFO
  /// `fifo` deep, in chip order. The words, overflow flags and neighbor
  /// lists are bit-identical to each chip's interact() pass j by j, merged
  /// in chip order (tests/grape/module_crosscheck_test.cpp).
  void interact_module(const PredictorUnit::PredictedBatch& j,
                       std::span<const IParticlePacket> iblock, double eps2,
                       const ModuleWords& out,
                       std::span<HwNeighborRecorder> neighbors = {},
                       std::size_t fifo = SIZE_MAX) const;

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
