// The predictor and force pipelines of the GRAPE-6 chip (pipeline.hpp).
//
// Each pipeline's op chain is written once, as a template over the value
// type: `double` with FloatFormat's scalar ops (predict(), interact() and
// the kernels' scalar recompute), or Lanes<W> with LaneFormat<W>'s lane ops
// (predict_batch() at W = 2, stage 1 of interact_batch() at W = 2 or 4).
// Bit-identity of the instantiations holds by construction — same ops,
// same association order, one rounding per emulated unit — and
// tests/grape/pipeline_crosscheck_test.cpp checks it at every width the
// host runs. No -ffast-math anywhere, and the library pins
// -ffp-contract=off (src/CMakeLists.txt), which the x86-64-v3 function
// keeps: its FMA units are never used.

#include "grape/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "util/check.hpp"

namespace g6 {

namespace {

/// x_j -/+ x on the 64-bit fixed-point words. Unsigned: the hardware
/// adder and subtractor wrap two's-complement, and signed overflow would
/// be UB for coordinates pushed into the guard bits.
std::int64_t wrap_add(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}

std::int64_t wrap_sub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}

template <int W>
[[gnu::always_inline]] inline LaneInts<W> wrap_sub(const LaneInts<W>& a,
                                                   const LaneInts<W>& b) {
  using Bits = typename LaneVectors<W>::Bits;
  using Vec = typename LaneInts<W>::Vec;
  return {__builtin_bit_cast(
      Vec, __builtin_bit_cast(Bits, a.v) - __builtin_bit_cast(Bits, b.v))};
}

/// Eqs (6)-(7) on one axis of a stored j-particle, in the predictor
/// format: the position correction `c` (Horner, Eq 6), which the caller
/// adds to the fixed-point base exactly, and the predicted velocity,
/// delivered in the velocity format. `pf`/`vf` are FloatFormats
/// (V = double) or LaneFormat<2>s (V = Lanes<2>).
template <class Ops, class V>
void predictor_chain(Ops& pf, Ops& vf, V dt, V vel, V acc, V jerk, V snap,
                     V& c, V& vel_out) {
  c = pf.mul(dt, pf.mul(snap, 1.0 / 24.0));
  c = pf.mul(dt, pf.add(pf.div(jerk, 6.0), c));
  c = pf.mul(dt, pf.add(pf.mul(acc, 0.5), c));
  c = pf.mul(dt, pf.add(vel, c));

  V v = pf.mul(dt, pf.div(snap, 6.0));
  v = pf.mul(dt, pf.add(pf.mul(jerk, 0.5), v));
  v = pf.mul(dt, pf.add(acc, v));
  vel_out = vf.quantize(pf.add(vel, v));
}

}  // namespace

// --- predictor -------------------------------------------------------------

PredictorUnit::PredictorUnit(const NumberFormats& fmt)
    : fmt_(fmt), codec_(fmt.coord_range) {
  if (LaneFormat<2>::supports(fmt.predictor) && LaneFormat<2>::supports(fmt.velocity)) {
    pf_lanes_.emplace(fmt.predictor);
    vf_lanes_.emplace(fmt.velocity);
  }
}

PredictorUnit::Predicted PredictorUnit::predict(const StoredJParticle& j,
                                                double t) const {
  const FloatFormat& pf = fmt_.predictor;
  const double dt = pf.sub(t, j.t0);
  Predicted out;
  out.index = j.index;
  out.mass = j.mass;
  for (int d = 0; d < 3; ++d) {
    double c = 0.0;
    predictor_chain(pf, fmt_.velocity, dt, j.vel[d], j.acc[d], j.jerk[d],
                    j.snap[d], c, out.vel[d]);
    out.pos[d] = wrap_add(j.pos[d], codec_.encode(c));
  }
  return out;
}

void PredictorUnit::PredictedBatch::resize(std::size_t n) {
  count = n;
  index.resize(n);
  mass.resize(n);
  for (int d = 0; d < 3; ++d) {
    pos[d].resize(n);
    vel[d].resize(n);
  }
}

PredictorUnit::Predicted PredictorUnit::PredictedBatch::at(std::size_t k) const {
  Predicted p;
  p.index = index[k];
  p.mass = mass[k];
  for (int d = 0; d < 3; ++d) {
    p.pos[d] = pos[d][k];
    p.vel[d] = vel[d][k];
  }
  return p;
}

void PredictorUnit::PredictedBatch::set(std::size_t k, const Predicted& p) {
  index[k] = p.index;
  mass[k] = p.mass;
  for (int d = 0; d < 3; ++d) {
    pos[d][k] = p.pos[d];
    vel[d][k] = p.vel[d];
  }
}

void PredictorUnit::predict_batch(const JStore& j, double t,
                                  PredictedBatch& out) const {
  const std::size_t n = j.size();
  out.resize(n);
  if (!pf_lanes_) {
    for (std::size_t k = 0; k < n; ++k) out.set(k, predict(j.get(k), t));
    return;
  }
  // Two slots per step with the lane ops; a pair with a flagged lane is
  // predicted again with the scalar ops. An odd tail repeats its last slot.
  LaneFormat<2> pf = *pf_lanes_;
  LaneFormat<2> vf = *vf_lanes_;
  for (std::size_t k = 0; k < n; k += 2) {
    const std::size_t k1 = k + 1 < n ? k + 1 : k;
    const auto lanes = [&](std::span<const double> col) {
      return Lanes<2>{{col[k], col[k1]}};
    };
    const Lanes<2> dt = pf.sub(Lanes<2>::splat(t), lanes(j.t0()));
    Lanes<2> c[3];
    Lanes<2> vel[3];
    for (int d = 0; d < 3; ++d) {
      predictor_chain(pf, vf, dt, lanes(j.vel(d)), lanes(j.acc(d)),
                      lanes(j.jerk(d)), lanes(j.snap(d)), c[d], vel[d]);
    }
    const LaneInts<2> flagged = pf.take_flagged() | vf.take_flagged();
    for (std::size_t s = k; s <= k1; ++s) {
      const int l = static_cast<int>(s - k);
      if (flagged[l] != 0) {
        out.set(s, predict(j.get(s), t));
        continue;
      }
      out.index[s] = j.index()[s];
      out.mass[s] = j.mass()[s];
      for (int d = 0; d < 3; ++d) {
        out.pos[d][s] = wrap_add(j.pos(d)[s], codec_.encode(c[d][l]));
        out.vel[d][s] = vel[d][l];
      }
    }
  }
}

// --- force pipeline --------------------------------------------------------

namespace {

/// What one interaction contributes: the neighbor comparator's r^2 word
/// and the seven addends of the accumulator bank.
template <class V>
struct Addends {
  V r2;
  V acc[3];
  V jerk[3];
  V pot;
};

/// The Fig 8 op chain in the pipeline format, from the exact fixed-point
/// difference x_j - x_i and the two velocities. `f` is the FloatFormat
/// (V = double) or a LaneFormat<W> (V = Lanes<W>); Word is the matching
/// 64-bit word.
template <class Ops, class V, class Word>
[[gnu::always_inline]] inline Addends<V> op_chain(Ops& f, const FixedPointCodec& codec,
                                                  const Word (&diff)[3],
                                                  const V (&jvel)[3],
                                                  const V (&ivel)[3], const V& mass,
                                                  const V& qeps2) {
  // One rounding into the pipeline float at the conversion.
  V dx[3];
  V dv[3];
  for (int d = 0; d < 3; ++d) {
    dx[d] = f.quantize(codec.decode(diff[d]));
    dv[d] = f.sub(jvel[d], ivel[d]);
  }

  Addends<V> a;
  // r^2 = ((dx^2 + dy^2) + dz^2) + eps^2
  a.r2 = f.mul(dx[0], dx[0]);
  a.r2 = f.add(a.r2, f.mul(dx[1], dx[1]));
  a.r2 = f.add(a.r2, f.mul(dx[2], dx[2]));
  a.r2 = f.add(a.r2, qeps2);

  const V rinv = f.rsqrt(a.r2);
  const V rinv2 = f.mul(rinv, rinv);
  const V mrinv = f.mul(mass, rinv);
  const V mrinv3 = f.mul(mrinv, rinv2);

  // 3 (dr . dv) / r^2
  V rv = f.mul(dx[0], dv[0]);
  rv = f.add(rv, f.mul(dx[1], dv[1]));
  rv = f.add(rv, f.mul(dx[2], dv[2]));
  rv = f.mul(rv, rinv2);
  rv = f.mul(rv, 3.0);

  for (int d = 0; d < 3; ++d) {
    a.acc[d] = f.mul(mrinv3, dx[d]);
    a.jerk[d] = f.mul(mrinv3, f.sub(dv[d], f.mul(rv, dx[d])));
  }
  a.pot = -mrinv;
  return a;
}

/// Wide-format A/B mode (NumberFormats::exact()): plain double arithmetic,
/// on one pair (V = double) or W (V = Lanes<W>).
template <class V, class Word>
[[gnu::always_inline]] inline Addends<V> exact_chain(const FixedPointCodec& codec,
                                                     const Word (&diff)[3],
                                                     const V (&jvel)[3],
                                                     const V (&ivel)[3],
                                                     const V& mass, const V& eps2) {
  // g6lint: begin-allow(raw-float) -- this IS the IEEE-double reference
  // path; per-op quantization through FloatFormat would be an identity
  // here and only add latency.
  using g6::sqrt;
  using std::sqrt;
  V dx[3];
  V dv[3];
  for (int d = 0; d < 3; ++d) {
    dx[d] = codec.decode(diff[d]);
    dv[d] = jvel[d] - ivel[d];
  }
  Addends<V> a;
  a.r2 = dx[0] * dx[0] + dx[1] * dx[1] + dx[2] * dx[2] + eps2;
  const V rinv = 1.0 / sqrt(a.r2);
  const V rinv2 = rinv * rinv;
  const V mrinv3 = mass * rinv * rinv2;
  const V rv = 3.0 * (dx[0] * dv[0] + dx[1] * dv[1] + dx[2] * dv[2]) * rinv2;
  for (int d = 0; d < 3; ++d) {
    a.acc[d] = mrinv3 * dx[d];
    a.jerk[d] = mrinv3 * (dv[d] - rv * dx[d]);
  }
  a.pot = -mass * rinv;
  return a;
  // g6lint: end-allow(raw-float)
}

/// interact()'s accumulation for one j: the neighbor comparator on the r^2
/// word (hardware: compare + FIFO), then the block floating-point adds.
void accumulate(const Addends<double>& a, std::uint32_t j_index, double h2,
                HwAccumulators& out, HwNeighborRecorder* neighbors) {
  if (neighbors != nullptr) neighbors->record(j_index, a.r2, h2);
  for (int d = 0; d < 3; ++d) {
    out.acc[d].add(a.acc[d]);
    out.jerk[d].add(a.jerk[d]);
  }
  out.pot.add(a.pot);
}

/// j-slots per stage-1 block: the granule of the scalar recompute.
constexpr std::size_t kBlock = 64;

/// Stage 1's output for one block, column by column: each slot's r^2 word
/// and its seven addends in HwPartialWords order (acc x/y/z, jerk x/y/z,
/// pot). The self slot's addends are +0.0, which BlockFloatAccumulator::add
/// skips, so stage 2 adds every column entry.
struct BlockColumns {
  double r2[kBlock];
  double word[HwPartialWords::kWords][kBlock];
};

/// What stage 1 reads besides the j columns: the i-particle and the
/// quantized eps^2.
struct Stage1Inputs {
  const PredictorUnit::PredictedBatch& j;
  const FixedPointCodec& codec;
  const IParticlePacket& ip;
  double e2;
};

/// Stage 1 for the W slots k.. of a block, written to columns g..: the op
/// chain on W lanes, addends masked to +0.0 on the self slot. With Splat,
/// slot k alone fills every lane and only lane 0 is stored as live (the
/// last slot of an odd remainder). `f` is null in the exact A/B mode.
/// Returns the flagged live lanes.
template <int W, bool Exact, bool Splat>
[[gnu::always_inline]] inline LaneInts<W> stage1_step(const Stage1Inputs& in,
                                                      LaneFormat<W>* f,
                                                      std::size_t k, std::size_t g,
                                                      BlockColumns& out) {
  using V = Lanes<W>;
  using M = LaneInts<W>;
  const auto& j = in.j;
  M diff[3];
  V jvel[3];
  V ivel[3];
  for (int d = 0; d < 3; ++d) {
    const M pos = Splat ? M::splat(j.pos[d][k]) : M::load(&j.pos[d][k]);
    diff[d] = wrap_sub(pos, M::splat(in.ip.pos[d]));
    jvel[d] = Splat ? V::splat(j.vel[d][k]) : V::load(&j.vel[d][k]);
    ivel[d] = V::splat(in.ip.vel[d]);
  }
  const V mass = Splat ? V::splat(j.mass[k]) : V::load(&j.mass[k]);
  // Flags and addends count only on the lanes stage 2 consumes: not the
  // self slot (its r^2 = eps^2 may well saturate), not a splat's copies.
  M live{};
  for (int l = 0; l < (Splat ? 1 : W); ++l) {
    live.v[l] = j.index[k + static_cast<std::size_t>(l)] != in.ip.index ? -1 : 0;
  }
  Addends<V> a;
  if constexpr (Exact) {
    a = exact_chain(in.codec, diff, jvel, ivel, mass, V::splat(in.e2));
  } else {
    a = op_chain(*f, in.codec, diff, jvel, ivel, mass, V::splat(in.e2));
  }
  a.r2.store(&out.r2[g]);
  for (int d = 0; d < 3; ++d) {
    select(live, a.acc[d]).store(&out.word[d][g]);
    select(live, a.jerk[d]).store(&out.word[3 + d][g]);
  }
  select(live, a.pot).store(&out.word[6][g]);
  if constexpr (Exact) {
    return M{};
  } else {
    return f->take_flagged() & live;
  }
}

/// Stage 1 for the m slots of the block at b: full groups of W slots on W
/// lanes, the 1-3 slots left over in two-lane steps (an odd last slot on
/// its own). Returns true when a live lane was flagged. `wide`/`narrow`
/// are the caller's own copies of the lane ops (they keep the flag
/// register), null in the exact mode.
template <int W, bool Exact>
[[gnu::always_inline]] inline bool stage1_block(const Stage1Inputs& in,
                                                LaneFormat<W>* wide,
                                                LaneFormat<2>* narrow, std::size_t b,
                                                std::size_t m, BlockColumns& out) {
  LaneInts<W> flagged{};
  std::size_t g = 0;
  for (; g + W <= m; g += W) {
    flagged |= stage1_step<W, Exact, false>(in, wide, b + g, g, out);
  }
  LaneInts<2> rest{};
  if constexpr (W > 2) {
    if (g + 2 <= m) {
      rest |= stage1_step<2, Exact, false>(in, narrow, b + g, g, out);
      g += 2;
    }
  }
  if (g < m) rest |= stage1_step<2, Exact, true>(in, narrow, b + g, g, out);
  return flagged.any() || rest.any();
}

bool stage1_baseline(const Stage1Inputs& in, const LaneFormat<2>* lanes, bool exact,
                     std::size_t b, std::size_t m, BlockColumns& out) {
  if (exact) return stage1_block<2, true>(in, nullptr, nullptr, b, m, out);
  LaneFormat<2> f = *lanes;
  return stage1_block<2, false>(in, &f, &f, b, m, out);
}

#if defined(__x86_64__)
/// The same at four lanes, compiled for x86-64-v3: run only where
/// host_lane_width() is 4. Everything it calls on lanes is always_inline,
/// so no wide vector crosses a call, and inline functions it does call
/// keep their baseline copies.
[[gnu::target("arch=x86-64-v3")]] bool stage1_wide(const Stage1Inputs& in,
                                                   const LaneFormat<2>* lanes,
                                                   bool exact, std::size_t b,
                                                   std::size_t m, BlockColumns& out) {
  if (exact) return stage1_block<4, true>(in, nullptr, nullptr, b, m, out);
  LaneFormat<4> wide(*lanes);
  LaneFormat<2> narrow = *lanes;
  return stage1_block<4, false>(in, &wide, &narrow, b, m, out);
}
#endif

std::atomic<int> g_forced_lane_width{0};

/// The stage-1 lane width of a pipeline built now.
int kernel_lane_width() {
  const int forced = g_forced_lane_width.load(std::memory_order_relaxed);
  return forced != 0 ? forced : host_lane_width();
}

}  // namespace

bool test_hooks::force_lane_width(int width) {
  if (width != 0 && width != 2 && !(width == 4 && host_lane_width() == 4)) return false;
  g_forced_lane_width.store(width, std::memory_order_relaxed);
  return true;
}

ForcePipeline::ForcePipeline(const NumberFormats& fmt)
    : fmt_(fmt),
      codec_(fmt.coord_range),
      exact_(fmt.pipeline.frac_bits() >= 52),
      wide_(kernel_lane_width() == 4) {
  if (!exact_ && LaneFormat<2>::supports(fmt.pipeline)) lanes_.emplace(fmt.pipeline);
}

void ForcePipeline::interact(const PredictorUnit::Predicted& j,
                             const IParticlePacket& ip, double eps2,
                             HwAccumulators& out,
                             HwNeighborRecorder* neighbors) const {
  if (j.index == ip.index) return;  // hardware self-interaction cut

  std::int64_t diff[3];
  double jvel[3];
  double ivel[3];
  for (int d = 0; d < 3; ++d) {
    diff[d] = wrap_sub(j.pos[d], ip.pos[d]);
    jvel[d] = j.vel[d];
    ivel[d] = ip.vel[d];
  }
  if (exact_) {
    accumulate(exact_chain(codec_, diff, jvel, ivel, j.mass, eps2), j.index,
               ip.h2, out, neighbors);
    return;
  }
  const FloatFormat& f = fmt_.pipeline;
  accumulate(op_chain(f, codec_, diff, jvel, ivel, j.mass, f.quantize(eps2)),
             j.index, f.quantize(ip.h2), out, neighbors);
}

void ForcePipeline::interact_batch(const PredictorUnit::PredictedBatch& j,
                                   const IParticlePacket& ip, double eps2,
                                   HwAccumulators& out,
                                   HwNeighborRecorder* neighbors) const {
  G6_REQUIRE(j.index.size() == j.count && j.mass.size() == j.count);
  const std::size_t n = j.count;
  if (!exact_ && !lanes_) {
    for (std::size_t k = 0; k < n; ++k) interact(j.at(k), ip, eps2, out, neighbors);
    return;
  }

  const FloatFormat& f = fmt_.pipeline;
  // Loop-invariant pure hoists: interact() quantizes these identical
  // words once per interaction; once per call is the same bits.
  const Stage1Inputs in{j, codec_, ip, exact_ ? eps2 : f.quantize(eps2)};
  const double h2 = exact_ ? ip.h2 : f.quantize(ip.h2);
  const LaneFormat<2>* narrow = lanes_ ? &*lanes_ : nullptr;
  const std::uint32_t* idx = j.index.data();

  BlockColumns cols;  // stage 1 writes each entry stage 2 reads
  for (std::size_t b = 0; b < n; b += kBlock) {
    const std::size_t m = std::min(kBlock, n - b);

#if defined(__x86_64__)
    const bool flagged = wide_ ? stage1_wide(in, narrow, exact_, b, m, cols)
                               : stage1_baseline(in, narrow, exact_, b, m, cols);
#else
    const bool flagged = stage1_baseline(in, narrow, exact_, b, m, cols);
#endif

    // A flagged lane left the format's normal range (flush, saturation,
    // inf/NaN, a negative r^2): recompute the whole block with the scalar
    // ops, which handle those cases — and raise their errors — exactly.
    if (flagged) {
      for (std::size_t k = b; k < b + m; ++k) interact(j.at(k), ip, eps2, out, neighbors);
      continue;
    }

    // Stage 2 (ordered): the neighbor records in ascending slot order, then
    // each accumulator word's column in ascending slot order. The words
    // are independent, so each one's adds and overflow-flag trajectory are
    // those of interact() called slot by slot, as is the FIFO order.
    if (neighbors != nullptr) {
      for (std::size_t g = 0; g < m; ++g) {
        if (idx[b + g] == ip.index) continue;  // hardware self-interaction cut
        neighbors->record(idx[b + g], cols.r2[g], h2);
      }
    }
    for (int w = 0; w < HwPartialWords::kWords; ++w) {
      out.word(w).add_run({cols.word[w], m});
    }
  }
}

}  // namespace g6
