// Batched predictor and force pipelines: the kernel of every chip pass.
//
// Same dataflow as the scalar reference in pipeline.cpp, restructured from
// per-particle calls into flat loops over the JStore / PredictedBatch
// columns. Bit-identity with the scalar reference is a hard contract
// (tests/grape/pipeline_crosscheck_test.cpp enforces it), which constrains
// this file in three ways:
//
//  * every per-interaction operation sequence is copied from the scalar
//    path verbatim — same ops, same association order, one rounding per
//    emulated unit;
//  * only loop-invariant *pure* values are hoisted (f.quantize(eps2),
//    f.quantize(ip.h2) — the scalar path computes the same word every
//    iteration);
//  * the j-loop runs in ascending slot order per i-particle, so the BFP
//    overflow-flag trajectory and the neighbor FIFO fill order match the
//    scalar path exactly. The accumulated *sums* would be order-independent
//    anyway (exact integer adds); the flags and FIFO are not.
//
// What makes it fast is what is NOT here: no struct gather per (i,j) pair,
// no libm in the inner loop (FloatFormat::quantize is integer bit
// manipulation), and contiguous unit-stride reads the compiler can
// autovectorize. No -ffast-math anywhere.

#include <cmath>
#include <cstdint>

#include "grape/pipeline.hpp"
#include "util/check.hpp"

namespace g6 {

void PredictorUnit::PredictedBatch::resize(std::size_t n) {
  count = n;
  index.resize(n);
  mass.resize(n);
  for (int d = 0; d < 3; ++d) {
    pos[d].resize(n);
    vel[d].resize(n);
  }
  dt.resize(n);
  c.resize(n);
  u.resize(n);
}

void PredictorUnit::predict_batch(const JStore& j, double t,
                                  PredictedBatch& out) const {
  const std::size_t n = j.size();
  out.resize(n);
  G6_REQUIRE(out.index.size() == n && out.dt.size() == n);

  const FloatFormat& pf = fmt_.predictor;

  {
    const auto idx = j.index();
    const auto mass = j.mass();
    for (std::size_t k = 0; k < n; ++k) {
      out.index[k] = idx[k];
      out.mass[k] = mass[k];
    }
  }

  // dt = quantize(t - t0), shared by both polynomials.
  spanops::qsub_from(pf, t, j.t0(), out.dt);

  for (int d = 0; d < 3; ++d) {
    // Position correction (Eq 6 Horner) — the exact op chain of
    // PredictorUnit::predict():
    //   c = mul(dt, q(1/24 * snap))
    //   c = mul(dt, add(q(jerk / 6), c))
    //   c = mul(dt, add(q(0.5 * acc), c))
    //   c = mul(dt, add(vel, c))
    spanops::qscale(pf, 1.0 / 24.0, j.snap(d), out.c);
    spanops::qmul(pf, out.dt, out.c, out.c);
    spanops::qdiv_by(pf, j.jerk(d), 6.0, out.u);
    spanops::qadd(pf, out.u, out.c, out.c);
    spanops::qmul(pf, out.dt, out.c, out.c);
    spanops::qscale(pf, 0.5, j.acc(d), out.u);
    spanops::qadd(pf, out.u, out.c, out.c);
    spanops::qmul(pf, out.dt, out.c, out.c);
    spanops::qadd(pf, j.vel(d), out.c, out.c);
    spanops::qmul(pf, out.dt, out.c, out.c);

    // Added to the fixed-point base exactly; unsigned add = wrapping
    // hardware adder (signed overflow would be UB).
    {
      const auto base = j.pos(d);
      for (std::size_t k = 0; k < n; ++k) {
        out.pos[d][k] = static_cast<std::int64_t>(
            static_cast<std::uint64_t>(base[k]) +
            static_cast<std::uint64_t>(codec_.encode(out.c[k])));
      }
    }

    // Velocity prediction (Eq 7), delivered in the velocity format:
    //   v = mul(dt, q(snap / 6))
    //   v = mul(dt, add(q(0.5 * jerk), v))
    //   v = mul(dt, add(acc, v))
    //   vel = velocity.quantize(add(vel, v))
    spanops::qdiv_by(pf, j.snap(d), 6.0, out.u);
    spanops::qmul(pf, out.dt, out.u, out.u);
    spanops::qscale(pf, 0.5, j.jerk(d), out.c);
    spanops::qadd(pf, out.c, out.u, out.u);
    spanops::qmul(pf, out.dt, out.u, out.u);
    spanops::qadd(pf, j.acc(d), out.u, out.u);
    spanops::qmul(pf, out.dt, out.u, out.u);
    spanops::qadd(pf, j.vel(d), out.u, out.u);
    spanops::quantize(fmt_.velocity, out.u, out.vel[d]);
  }
}

void ForcePipeline::interact_batch(const PredictorUnit::PredictedBatch& j,
                                   const IParticlePacket& ip, double eps2,
                                   HwAccumulators& out,
                                   HwNeighborRecorder* neighbors) const {
  G6_REQUIRE(j.index.size() == j.count && j.mass.size() == j.count);
  const std::size_t n = j.count;
  const std::uint32_t self = ip.index;
  const std::uint32_t* idx = j.index.data();
  const double* mass = j.mass.data();
  const std::int64_t* jpos[3];
  const double* jvel[3];
  for (int d = 0; d < 3; ++d) {
    jpos[d] = j.pos[d].data();
    jvel[d] = j.vel[d].data();
  }

  if (exact_) {
    // Wide-format A/B mode, mirroring interact()'s exact branch.
    // g6lint: begin-allow(raw-float) -- this branch IS the IEEE-double
    // reference path (NumberFormats::exact()); per-op quantization through
    // FloatFormat would be an identity here and only add latency.
    for (std::size_t k = 0; k < n; ++k) {
      if (idx[k] == self) continue;  // hardware self-interaction cut
      double dx[3];
      double dv[3];
      for (int d = 0; d < 3; ++d) {
        const std::int64_t diff = static_cast<std::int64_t>(
            static_cast<std::uint64_t>(jpos[d][k]) -
            static_cast<std::uint64_t>(ip.pos[d]));
        dx[d] = codec_.decode(diff);
        dv[d] = jvel[d][k] - ip.vel[d];
      }
      const double r2 = dx[0] * dx[0] + dx[1] * dx[1] + dx[2] * dx[2] + eps2;
      if (neighbors != nullptr) neighbors->record(idx[k], r2, ip.h2);
      const double rinv = 1.0 / std::sqrt(r2);
      const double rinv2 = rinv * rinv;
      const double mrinv3 = mass[k] * rinv * rinv2;
      const double rv =
          3.0 * (dx[0] * dv[0] + dx[1] * dv[1] + dx[2] * dv[2]) * rinv2;
      for (int d = 0; d < 3; ++d) {
        out.acc[d].add(mrinv3 * dx[d]);
        out.jerk[d].add(mrinv3 * (dv[d] - rv * dx[d]));
      }
      out.pot.add(-mass[k] * rinv);
    }
    return;
    // g6lint: end-allow(raw-float)
  }

  const FloatFormat& f = fmt_.pipeline;
  // Loop-invariant pure hoists: the scalar path quantizes these identical
  // words once per interaction; once per call is the same bits.
  const double qeps2 = f.quantize(eps2);
  const double qh2 = f.quantize(ip.h2);

  for (std::size_t k = 0; k < n; ++k) {
    if (idx[k] == self) continue;  // hardware self-interaction cut

    double dx[3];
    double dv[3];
    for (int d = 0; d < 3; ++d) {
      // Exact fixed-point subtract (wrapping, as in interact()), one
      // rounding into the pipeline float.
      const std::int64_t diff = static_cast<std::int64_t>(
          static_cast<std::uint64_t>(jpos[d][k]) -
          static_cast<std::uint64_t>(ip.pos[d]));
      dx[d] = f.quantize(codec_.decode(diff));
      dv[d] = f.quantize(jvel[d][k] - ip.vel[d]);
    }

    // r^2 = ((dx^2 + dy^2) + dz^2) + eps^2
    double r2 = f.mul(dx[0], dx[0]);
    r2 = f.add(r2, f.mul(dx[1], dx[1]));
    r2 = f.add(r2, f.mul(dx[2], dx[2]));
    r2 = f.add(r2, qeps2);

    if (neighbors != nullptr) neighbors->record(idx[k], r2, qh2);

    const double rinv = f.rsqrt(r2);
    const double rinv2 = f.mul(rinv, rinv);
    const double mrinv = f.mul(mass[k], rinv);
    const double mrinv3 = f.mul(mrinv, rinv2);

    // 3 (dr . dv) / r^2
    double rv = f.mul(dx[0], dv[0]);
    rv = f.add(rv, f.mul(dx[1], dv[1]));
    rv = f.add(rv, f.mul(dx[2], dv[2]));
    rv = f.mul(rv, rinv2);
    rv = f.mul(rv, 3.0);

    for (int d = 0; d < 3; ++d) {
      out.acc[d].add(f.mul(mrinv3, dx[d]));
      const double jterm = f.sub(dv[d], f.mul(rv, dx[d]));
      out.jerk[d].add(f.mul(mrinv3, jterm));
    }
    out.pot.add(-mrinv);
  }
}

}  // namespace g6
