// The predictor and force pipelines of the GRAPE-6 chip (pipeline.hpp).
//
// Each pipeline's op chain is written once, as a template over the value
// type: `double` with FloatFormat's scalar ops (predict(), interact() and
// the kernels' scalar recompute), or Lanes with LaneFormat's two-lane ops
// (predict_batch(), stage 1 of interact_batch()). Bit-identity of the two
// instantiations holds by construction — same ops, same association
// order, one rounding per emulated unit — and
// tests/grape/pipeline_crosscheck_test.cpp checks it. No -ffast-math
// anywhere, and the library pins -ffp-contract=off (src/CMakeLists.txt).

#include "grape/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

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

LaneInts wrap_sub(LaneInts a, LaneInts b) {
  using LaneWords = std::uint64_t __attribute__((vector_size(16)));
  return std::bit_cast<LaneInts>(std::bit_cast<LaneWords>(a) -
                                 std::bit_cast<LaneWords>(b));
}

/// Eqs (6)-(7) on one axis of a stored j-particle, in the predictor
/// format: the position correction `c` (Horner, Eq 6), which the caller
/// adds to the fixed-point base exactly, and the predicted velocity,
/// delivered in the velocity format. `pf`/`vf` are FloatFormats
/// (V = double) or LaneFormats (V = Lanes).
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
  if (!LaneFormat::supports(fmt_.predictor) || !LaneFormat::supports(fmt_.velocity)) {
    for (std::size_t k = 0; k < n; ++k) out.set(k, predict(j.get(k), t));
    return;
  }
  // Two slots per step with the lane ops; a pair with a flagged lane is
  // predicted again with the scalar ops. An odd tail repeats its last slot.
  LaneFormat pf(fmt_.predictor);
  LaneFormat vf(fmt_.velocity);
  for (std::size_t k = 0; k < n; k += 2) {
    const std::size_t k1 = k + 1 < n ? k + 1 : k;
    const auto lanes = [&](std::span<const double> col) {
      return Lanes{col[k], col[k1]};
    };
    const Lanes dt = pf.sub(Lanes{t, t}, lanes(j.t0()));
    Lanes c[3];
    Lanes vel[3];
    for (int d = 0; d < 3; ++d) {
      predictor_chain(pf, vf, dt, lanes(j.vel(d)), lanes(j.acc(d)),
                      lanes(j.jerk(d)), lanes(j.snap(d)), c[d], vel[d]);
    }
    const LaneInts flagged = pf.take_flagged() | vf.take_flagged();
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
/// (V = double) or a LaneFormat (V = Lanes); W is the matching 64-bit word.
template <class Ops, class V, class W>
Addends<V> op_chain(Ops& f, const FixedPointCodec& codec, const W (&diff)[3],
                    const V (&jvel)[3], const V (&ivel)[3], V mass, V qeps2) {
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
/// on one pair (V = double) or two (V = Lanes).
template <class V, class W>
Addends<V> exact_chain(const FixedPointCodec& codec, const W (&diff)[3],
                       const V (&jvel)[3], const V (&ivel)[3], V mass, V eps2) {
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

/// Stage 2 for one j: the neighbor comparator on the r^2 word (hardware:
/// compare + FIFO), then the block floating-point adds.
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

}  // namespace

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
  if (!exact_ && !LaneFormat::supports(fmt_.pipeline)) {
    for (std::size_t k = 0; k < n; ++k) interact(j.at(k), ip, eps2, out, neighbors);
    return;
  }

  const FloatFormat& f = fmt_.pipeline;
  std::optional<LaneFormat> lanes;
  if (!exact_) lanes.emplace(f);
  // Loop-invariant pure hoists: interact() quantizes these identical
  // words once per interaction; once per call is the same bits.
  const double e2 = exact_ ? eps2 : f.quantize(eps2);
  const double h2 = exact_ ? ip.h2 : f.quantize(ip.h2);
  const std::uint32_t self = ip.index;
  const std::uint32_t* idx = j.index.data();
  LaneInts ipos[3];
  Lanes ivel[3];
  for (int d = 0; d < 3; ++d) {
    ipos[d] = LaneInts{ip.pos[d], ip.pos[d]};
    ivel[d] = Lanes{ip.vel[d], ip.vel[d]};
  }

  Addends<double> block[kBlock];  // stage 1 writes each slot stage 2 reads
  for (std::size_t b = 0; b < n; b += kBlock) {
    const std::size_t m = std::min(kBlock, n - b);

    // Stage 1 (pure, two j per step): the seven addends and r^2 of every
    // slot in the block. An odd tail repeats its last slot in lane 1.
    LaneInts flagged{};
    for (std::size_t g = 0; g < m; g += 2) {
      const std::size_t k0 = b + g;
      const std::size_t k1 = g + 1 < m ? k0 + 1 : k0;
      LaneInts diff[3];
      Lanes jvel[3];
      for (int d = 0; d < 3; ++d) {
        diff[d] = wrap_sub(LaneInts{j.pos[d][k0], j.pos[d][k1]}, ipos[d]);
        jvel[d] = Lanes{j.vel[d][k0], j.vel[d][k1]};
      }
      const Lanes mass = {j.mass[k0], j.mass[k1]};
      const Addends<Lanes> a =
          exact_ ? exact_chain(codec_, diff, jvel, ivel, mass, Lanes{e2, e2})
                 : op_chain(*lanes, codec_, diff, jvel, ivel, mass, Lanes{e2, e2});
      if (!exact_) {
        // Flags count only on lanes stage 2 consumes: not the self slot
        // (its r^2 = eps^2 may well saturate), not the tail's repeat.
        const LaneInts live = {idx[k0] != self ? -1 : 0,
                               k1 != k0 && idx[k1] != self ? -1 : 0};
        flagged |= lanes->take_flagged() & live;
      }
      for (int l = 0; l < 2; ++l) {
        Addends<double>& s = block[g + static_cast<std::size_t>(l)];
        s.r2 = a.r2[l];
        for (int d = 0; d < 3; ++d) {
          s.acc[d] = a.acc[d][l];
          s.jerk[d] = a.jerk[d][l];
        }
        s.pot = a.pot[l];
      }
    }

    // A flagged lane left the format's normal range (flush, saturation,
    // inf/NaN, a negative r^2): recompute the whole block with the scalar
    // ops, which handle those cases — and raise their errors — exactly.
    if ((flagged[0] | flagged[1]) != 0) {
      for (std::size_t k = b; k < b + m; ++k) interact(j.at(k), ip, eps2, out, neighbors);
      continue;
    }

    // Stage 2 (ordered, scalar): neighbor records and BFP adds in
    // ascending slot order, so the overflow-flag trajectory and the FIFO
    // order are those of interact() called slot by slot.
    for (std::size_t g = 0; g < m; ++g) {
      if (idx[b + g] == self) continue;  // hardware self-interaction cut
      accumulate(block[g], idx[b + g], h2, out, neighbors);
    }
  }
}

}  // namespace g6
