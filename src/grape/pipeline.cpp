// The predictor and force pipelines of the GRAPE-6 chip (pipeline.hpp).
//
// Each pipeline's op chain is written once, as a template over the value
// type: `double` with FloatFormat's scalar ops (predict(), interact()), or
// lanes with LaneFormat<W>'s lane ops — Lanes<W> in predict_batch(), and
// in interact_module() a Twin of two Lanes<W> (W = 2 or 4), two chains run
// op by op. Bit-identity of the instantiations holds by construction —
// same ops, same association order, one rounding per emulated unit — and
// tests/grape/pipeline_crosscheck_test.cpp and module_crosscheck_test.cpp
// check it at every width the host runs. No -ffast-math anywhere, and the
// library pins -ffp-contract=off (src/CMakeLists.txt), which the x86-64-v3
// functions keep: their FMA units are never used.

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

std::atomic<int> g_forced_lane_width{0};

/// The kernel lane width of a pipeline or predictor built now.
int kernel_lane_width() {
  const int forced = g_forced_lane_width.load(std::memory_order_relaxed);
  return forced != 0 ? forced : host_lane_width();
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
/// (V = double) or LaneFormat<W>s (V = Lanes<W>).
template <class Ops, class V>
[[gnu::always_inline]] inline void predictor_chain(Ops& pf, Ops& vf, const V& dt,
                                                   const V& vel, const V& acc,
                                                   const V& jerk, const V& snap, V& c,
                                                   V& vel_out) {
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
    : fmt_(fmt),
      codec_(fmt.coord_range),
      lanes_(LaneFormat<2>::supports(fmt.predictor) &&
             LaneFormat<2>::supports(fmt.velocity)),
      wide_(kernel_lane_width() == 4) {}

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

namespace {

/// predict_batch() as the lane functions see it.
struct PredictInputs {
  const PredictorUnit& unit;
  const FloatFormat& pf;
  const FloatFormat& vf;
  const FixedPointCodec& codec;
  double t;
  PredictorUnit::PredictedBatch& out;
};

/// W j-slots of a module, lane l on slot at[l] of chip memory *src[l],
/// bound for batch slot first + l; lanes [n, W) are dead copies of lane
/// n - 1.
template <int W>
struct PredictLanes {
  const JStore* src[W];
  std::size_t at[W];
  std::size_t first;
  int n;
};

using JColumn = std::span<const double> (JStore::*)(int) const;

template <int W>
[[gnu::always_inline]] inline Lanes<W> gather(const PredictLanes<W>& g, JColumn col,
                                              int d) {
  double x[W];
  for (int l = 0; l < W; ++l) x[l] = (g.src[l]->*col)(d)[g.at[l]];
  return lanes_from<Lanes<W>>(x);
}

/// The predictor chain on the W slots of `g`, their live lanes scattered
/// to the batch; a flagged lane is predicted again with the scalar ops.
template <int W>
[[gnu::always_inline]] inline void predict_lanes(const PredictInputs& in,
                                                 const PredictLanes<W>& g,
                                                 LaneFormat<W>& pf, LaneFormat<W>& vf) {
  double t0[W];
  for (int l = 0; l < W; ++l) t0[l] = g.src[l]->t0()[g.at[l]];
  const Lanes<W> dt = pf.sub(Lanes<W>::splat(in.t), lanes_from<Lanes<W>>(t0));
  Lanes<W> c[3];
  Lanes<W> vel[3];
  for (int d = 0; d < 3; ++d) {
    predictor_chain(pf, vf, dt, gather(g, &JStore::vel, d), gather(g, &JStore::acc, d),
                    gather(g, &JStore::jerk, d), gather(g, &JStore::snap, d), c[d],
                    vel[d]);
  }
  const LaneInts<W> flagged = pf.take_flagged() | vf.take_flagged();
  PredictorUnit::PredictedBatch& out = in.out;
  for (int l = 0; l < g.n; ++l) {
    const JStore& j = *g.src[l];
    const std::size_t s = g.at[l];
    const std::size_t k = g.first + static_cast<std::size_t>(l);
    if (flagged[l] != 0) {
      out.set(k, in.unit.predict(j.get(s), in.t));
      continue;
    }
    out.index[k] = j.index()[s];
    out.mass[k] = j.mass()[s];
    for (int d = 0; d < 3; ++d) {
      out.pos[d][k] = wrap_add(j.pos(d)[s], in.codec.encode(c[d][l]));
      out.vel[d][k] = vel[d][l];
    }
  }
}

/// Every chip's j-slots, W at a time in chip order; a step's lanes may
/// span chips.
template <int W>
[[gnu::always_inline]] inline void predict_chips(const PredictInputs& in,
                                                 std::span<const JStore* const> chips) {
  LaneFormat<W> pf(in.pf);
  LaneFormat<W> vf(in.vf);
  PredictLanes<W> g{};
  for (const JStore* j : chips) {
    for (std::size_t s = 0; s < j->size(); ++s) {
      g.src[g.n] = j;
      g.at[g.n] = s;
      if (++g.n < W) continue;
      predict_lanes(in, g, pf, vf);
      g.first += W;
      g.n = 0;
    }
  }
  if (g.n == 0) return;
  for (int l = g.n; l < W; ++l) {
    g.src[l] = g.src[g.n - 1];
    g.at[l] = g.at[g.n - 1];
  }
  predict_lanes(in, g, pf, vf);
}

void predict_baseline(const PredictInputs& in, std::span<const JStore* const> chips) {
  predict_chips<2>(in, chips);
}

#if defined(__x86_64__)
/// The same at four lanes, compiled for x86-64-v3 (pass_wide below).
[[gnu::target("arch=x86-64-v3")]] void predict_wide(
    const PredictInputs& in, std::span<const JStore* const> chips) {
  predict_chips<4>(in, chips);
}
#endif

}  // namespace

void PredictorUnit::predict_batch(std::span<const JStore* const> chips, double t,
                                  PredictedBatch& out) const {
  std::size_t n = 0;
  out.end.resize(chips.size());
  for (std::size_t c = 0; c < chips.size(); ++c) {
    n += chips[c]->size();
    out.end[c] = n;
  }
  out.resize(n);
  if (!lanes_) {
    std::size_t k = 0;
    for (const JStore* j : chips) {
      for (std::size_t s = 0; s < j->size(); ++s) out.set(k++, predict(j->get(s), t));
    }
    return;
  }
  const PredictInputs in{*this, fmt_.predictor, fmt_.velocity, codec_, t, out};
#if defined(__x86_64__)
  // One or two j run at two lanes, where they cost less.
  if (wide_ && n > 2) return predict_wide(in, chips);
#endif
  predict_baseline(in, chips);
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

/// Two op chains side by side, run op by op in one instruction stream so
/// each hides the other's latency: exact_chain's operators and op_chain's
/// ops (TwinFormat, each chain with its own flag register) on both.
template <class T>
struct Twin {
  T a, b;
};
// g6lint: begin-allow(raw-float) -- exact_chain's operators, the
// IEEE-double reference path, applied to both chains.
template <class T>
[[gnu::always_inline]] inline Twin<T> operator+(const Twin<T>& x,
                                                 const Twin<T>& y) {
  return {x.a + y.a, x.b + y.b};
}
template <class T>
[[gnu::always_inline]] inline Twin<T> operator-(const Twin<T>& x,
                                                 const Twin<T>& y) {
  return {x.a - y.a, x.b - y.b};
}
template <class T>
[[gnu::always_inline]] inline Twin<T> operator*(const Twin<T>& x,
                                                 const Twin<T>& y) {
  return {x.a * y.a, x.b * y.b};
}
template <class T>
[[gnu::always_inline]] inline Twin<T> operator-(const Twin<T>& x) {
  return {-x.a, -x.b};
}
template <class T>
[[gnu::always_inline]] inline Twin<T> operator*(double c, const Twin<T>& x) {
  return {c * x.a, c * x.b};
}
template <class T>
[[gnu::always_inline]] inline Twin<T> operator/(double c, const Twin<T>& x) {
  return {c / x.a, c / x.b};
}
template <class T>
[[gnu::always_inline]] inline Twin<T> sqrt(const Twin<T>& x) {
  return {sqrt(x.a), sqrt(x.b)};
}
// g6lint: end-allow(raw-float)

template <int W>
struct TwinFormat {
  using V = Twin<Lanes<W>>;
  LaneFormat<W> a, b;

  [[gnu::always_inline]] V quantize(const V& x) {
    return {a.quantize(x.a), b.quantize(x.b)};
  }
  [[gnu::always_inline]] V add(const V& x, const V& y) {
    return {a.add(x.a, y.a), b.add(x.b, y.b)};
  }
  [[gnu::always_inline]] V sub(const V& x, const V& y) {
    return {a.sub(x.a, y.a), b.sub(x.b, y.b)};
  }
  [[gnu::always_inline]] V mul(const V& x, const V& y) {
    return {a.mul(x.a, y.a), b.mul(x.b, y.b)};
  }
  [[gnu::always_inline]] V mul(const V& x, double c) {
    return {a.mul(x.a, c), b.mul(x.b, c)};
  }
  [[gnu::always_inline]] V rsqrt(const V& x) { return {a.rsqrt(x.a), b.rsqrt(x.b)}; }
};

/// The codec's decode on a word, lanes or a Twin of lanes.
template <class Word>
[[gnu::always_inline]] inline auto decode(const FixedPointCodec& c, const Word& w) {
  return c.decode(w);
}
template <int W>
[[gnu::always_inline]] inline Twin<Lanes<W>> decode(const FixedPointCodec& c,
                                                    const Twin<LaneInts<W>>& w) {
  return {c.decode(w.a), c.decode(w.b)};
}

/// The Fig 8 op chain in the pipeline format, from the exact fixed-point
/// difference x_j - x_i and the two velocities. `f` is the FloatFormat
/// (V = double) or a TwinFormat<W> (V = Twin<Lanes<W>>); Word is the
/// matching 64-bit word.
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
    dx[d] = f.quantize(decode(codec, diff[d]));
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
/// on one pair (V = double) or two lane groups (V = Twin<Lanes<W>>).
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
    dx[d] = decode(codec, diff[d]);
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
                HwAccumulators& out, HwNeighborRecorder* neighbors, std::size_t fifo,
                std::size_t& taken) {
  if (neighbors != nullptr) neighbors->record(j_index, a.r2, h2, fifo, taken);
  for (int d = 0; d < 3; ++d) {
    out.acc[d].add(a.acc[d]);
    out.jerk[d].add(a.jerk[d]);
  }
  out.pot.add(a.pot);
}

/// One module pass as the kernel sees it. `eps2` is as given (interact()
/// quantizes it itself), `e2` is the op chains' eps^2 word, `pf` the
/// pipeline format (null in the exact mode, where h2 is not quantized).
struct PassInputs {
  const ForcePipeline& pipeline;
  const FixedPointCodec& codec;
  const FloatFormat* pf;
  const PredictorUnit::PredictedBatch& j;
  std::span<const IParticlePacket> iblock;
  const ModuleWords& out;
  std::span<HwNeighborRecorder> neighbors;  ///< empty: no neighbor collection
  std::size_t fifo;
  double eps2;
  double e2;

  bool merged() const { return !out.merged.empty(); }
  /// Chip c's words for slot s, in the per-chip mode.
  HwAccumulators& chip_words(std::size_t c, std::size_t s) const {
    const std::size_t k = c * iblock.size() + s;
    return out.chips[k];
  }
  BlockExponents exps(std::size_t s) const {
    if (merged()) return out.exps[s];
    const HwAccumulators& a = out.chips[s];
    return {a.acc[0].block_exp(), a.jerk[0].block_exp(), a.pot.block_exp()};
  }
  HwNeighborRecorder* nb(std::size_t s) const {
    return neighbors.empty() ? nullptr : &neighbors[s];
  }
};

/// Slot `s` through the scalar interact(), chip by chip and j by j, each
/// chip's partial from zero and merged in chip order.
void scalar_slot(const PassInputs& in, std::size_t s) {
  HwAccumulators partial;
  for (std::size_t c = 0, k = 0; c < in.j.end.size(); ++c) {
    if (k == in.j.end[c]) continue;
    if (in.merged()) partial.reset(in.out.exps[s]);
    HwAccumulators& words = in.merged() ? partial : in.chip_words(c, s);
    std::size_t taken = 0;
    for (; k < in.j.end[c]; ++k) {
      in.pipeline.interact(in.j.at(k), in.iblock[s], in.eps2, words, in.nb(s), in.fifo,
                           taken);
    }
    if (in.merged()) in.out.merged[s].merge(partial.words());
  }
}

/// One lane group's i-slots: lane l is slot[l]; lanes [m, W) are dead
/// copies of slot[m - 1] that never flag, add, record or store.
template <int W>
struct GroupSlots {
  std::size_t slot[W];
  int m;
  double h2[W];  ///< the neighbor radii in the comparator's format
  BlockExponents exps[W];
  std::size_t taken[W];  ///< entries the current chip's FIFO took
};

/// A lane group's accumulator words — one chip's partial, or the module's
/// sum of them: word w of lane l is word w of slot[l].
template <int W>
struct GroupWords {
  LaneAccumulator<W> word[HwPartialWords::kWords];

  /// Zero words on the slots' grid scales. False when a live lane's scale
  /// is outside the exact power-of-two window (BlockFloatAccumulator's
  /// ldexp fallback).
  [[gnu::always_inline]] bool set_up(const GroupSlots<W>& s, const LaneInts<W>& live) {
    double scale[3][W];
    for (int l = 0; l < W; ++l) {
      scale[0][l] = BlockFloatAccumulator::grid_scale(s.exps[l].acc);
      scale[1][l] = BlockFloatAccumulator::grid_scale(s.exps[l].jerk);
      scale[2][l] = BlockFloatAccumulator::grid_scale(s.exps[l].pot);
    }
    LaneInts<W> zero{};
    for (int w = 0; w < HwPartialWords::kWords; ++w) {
      word[w].scale = lanes_from<Lanes<W>>(scale[w < 3 ? 0 : w < 6 ? 1 : 2]);
      zero |= LaneInts<W>{word[w].scale.v == Lanes<W>{}.v};
    }
    clear();
    return !(zero & live).any();
  }
  [[gnu::always_inline]] void clear() {
    for (auto& w : word) {
      w.mant = LaneInts<W>{};
      w.overflow = LaneInts<W>{};
    }
  }
  [[gnu::always_inline]] void merge(const GroupWords& o) {
    for (int w = 0; w < HwPartialWords::kWords; ++w) word[w].merge(o.word[w]);
  }
  /// Lanes [0, n) to the words of *bank[l]: mantissas replaced, flags ORed.
  [[gnu::always_inline]] void store(HwAccumulators* const (&bank)[W], int n) const {
    for (int w = 0; w < HwPartialWords::kWords; ++w) {
      BlockFloatAccumulator* words[W];
      for (int l = 0; l < W; ++l) words[l] = &bank[l]->word(w);
      word[w].store(words, n);
    }
  }
  [[gnu::always_inline]] void load(HwAccumulators* const (&bank)[W]) {
    for (int w = 0; w < HwPartialWords::kWords; ++w) {
      const BlockFloatAccumulator* words[W];
      for (int l = 0; l < W; ++l) words[l] = &bank[l]->word(w);
      word[w].load(words);
    }
  }
  /// The live lanes to their slots' merged words.
  [[gnu::always_inline]] void store_merged(const PassInputs& in,
                                           const GroupSlots<W>& s) const {
    for (int l = 0; l < s.m; ++l) {
      HwPartialWords& p = in.out.merged[s.slot[l]];
      unsigned flags = 0;
      for (int w = 0; w < HwPartialWords::kWords; ++w) {
        p.mant[w] = word[w].mant[l];
        if (word[w].overflow[l] != 0) flags |= 1u << w;
      }
      p.overflow = static_cast<std::uint8_t>(flags);
    }
  }
};

/// Chip c's last j is in: its partial merges into the module's words, or
/// (per chip) is stored to its own, and the next chip's starts at zero.
template <int W>
[[gnu::always_inline]] inline void end_chip(const PassInputs& in, GroupSlots<W>& s,
                                            GroupWords<W>& part, GroupWords<W>& sum,
                                            std::size_t c) {
  if (in.merged()) {
    sum.merge(part);
  } else {
    HwAccumulators* bank[W];
    for (int l = 0; l < W; ++l) bank[l] = &in.chip_words(c, s.slot[l]);
    part.store(bank, s.m);
  }
  part.clear();
  for (auto& t : s.taken) t = 0;
}

/// The chip after chip c, whose last j was `k`, that holds a j.
inline std::size_t next_chip(std::span<const std::size_t> end, std::size_t c,
                             std::size_t k) {
  do {
    ++c;
  } while (c < end.size() && end[c] == k + 1);
  return c;
}

/// The lanes in `flagged` left the format's normal range (flush,
/// saturation, inf/NaN, a negative r^2) at predicted j `k`: that j goes
/// through the scalar interact(), which handles those cases — and raises
/// their errors — exactly. The chip's partial is spilled to scratch words
/// first and reloaded after, so each slot still gets its j in order; `use`
/// drops those lanes.
template <int W>
[[gnu::always_inline]] inline void redo(const PassInputs& in, GroupSlots<W>& s,
                                        GroupWords<W>& part, std::size_t k,
                                        const LaneInts<W>& flagged, LaneInts<W>& use) {
  HwAccumulators scratch[W];
  HwAccumulators* bank[W];
  for (int l = 0; l < W; ++l) {
    scratch[l].reset(s.exps[l]);
    bank[l] = &scratch[l];
  }
  part.store(bank, W);
  for (int l = 0; l < s.m; ++l) {
    if (flagged[l] == 0) continue;
    in.pipeline.interact(in.j.at(k), in.iblock[s.slot[l]], in.eps2, scratch[l],
                         in.nb(s.slot[l]), in.fifo, s.taken[l]);
  }
  part.load(bank);
  use = use & LaneInts<W>{~flagged.v};
}

/// Chain T of a Twin on predicted j `k`, on the lanes in `use`: the
/// neighbor comparators, then the seven lane adds.
template <int T, int W>
[[gnu::always_inline]] inline void finish(const PassInputs& in, GroupSlots<W>& s,
                                          GroupWords<W>& part, std::size_t k,
                                          const LaneInts<W>& use,
                                          const Addends<Twin<Lanes<W>>>& a) {
  constexpr auto half = T == 0 ? &Twin<Lanes<W>>::a : &Twin<Lanes<W>>::b;
  if (!in.neighbors.empty()) {
    for (int l = 0; l < s.m; ++l) {
      if (use[l] == 0) continue;
      in.neighbors[s.slot[l]].record(in.j.index[k], (a.r2.*half)[l], s.h2[l], in.fifo,
                                     s.taken[l]);
    }
  }
  for (int d = 0; d < 3; ++d) {
    part.word[d].add(select(use, a.acc[d].*half));
    part.word[3 + d].add(select(use, a.jerk[d].*half));
  }
  part.word[6].add(select(use, a.pot.*half));
}

/// The G lane groups of W i-slots from `g` on (`m` live slots in all, the
/// last group partial), set up once, then every chip's predicted j
/// broadcast to their lanes: chips in order, each one's j ascending, j
/// outer and lanes inner, so each slot gets each chip's j contributions in
/// the scalar pass's order. Each chip's partial starts at zero and, after
/// its last j, merges into the module's words in the lanes (end_chip).
/// Each step runs two op chains as one Twin, interleaved op by op so each
/// hides the other's latency: the two groups on one j (G = 2), or the
/// group on two consecutive j of the module, applied one after the other
/// (G = 1; the pair may span two chips; an odd last j runs twice and its
/// copy is dropped). Returns false, having done nothing, when a word's grid
/// scale is outside the exact power-of-two window.
template <int W, int G, bool Exact>
[[gnu::always_inline]] inline bool lane_groups(const PassInputs& in, std::size_t g,
                                               int m) {
  using V = Lanes<W>;
  using M = LaneInts<W>;
  GroupSlots<W> slots[G];
  std::int64_t pos[G][3][W];
  double vel[G][3][W];
  std::int64_t idx[G][W];
  std::int64_t alive[G][W];
  const bool quantize_h2 = in.pf != nullptr && !in.neighbors.empty();
  for (int h = 0, first = 0; h < G; ++h, first += W) {
    GroupSlots<W>& s = slots[h];
    s.m = std::min(m - first, W);
    for (int l = 0; l < W; ++l) {
      s.slot[l] = g + static_cast<std::size_t>(first + std::min(l, s.m - 1));
      const IParticlePacket& ip = in.iblock[s.slot[l]];
      for (int d = 0; d < 3; ++d) {
        pos[h][d][l] = ip.pos[d];
        vel[h][d][l] = ip.vel[d];
      }
      idx[h][l] = ip.index;
      alive[h][l] = l < s.m ? -1 : 0;
      s.h2[l] = quantize_h2 ? in.pf->quantize(ip.h2) : ip.h2;
      s.exps[l] = in.exps(s.slot[l]);
      s.taken[l] = 0;
    }
  }
  M iidx[G];
  M live[G];
  GroupWords<W> part[G];  // the current chip's partials
  GroupWords<W> sum[G];   // the module's words (merged mode)
  for (int h = 0; h < G; ++h) {
    iidx[h] = lanes_from<M>(idx[h]);
    live[h] = lanes_from<M>(alive[h]);
    if (!part[h].set_up(slots[h], live[h])) return false;
    sum[h] = part[h];
  }
  constexpr int gr[2] = {0, G - 1};  // chain t runs group gr[t]
  Twin<M> ipos[3];
  Twin<V> ivel[3];
  for (int d = 0; d < 3; ++d) {
    ipos[d] = {lanes_from<M>(pos[gr[0]][d]), lanes_from<M>(pos[gr[1]][d])};
    ivel[d] = {lanes_from<V>(vel[gr[0]][d]), lanes_from<V>(vel[gr[1]][d])};
  }
  const V e2 = V::splat(in.e2);
  const Twin<V> qeps2{e2, e2};
  TwinFormat<W> ops;  // none in the exact mode
  if (in.pf != nullptr) ops = {LaneFormat<W>(*in.pf), LaneFormat<W>(*in.pf)};
  const auto& j = in.j;
  const std::span<const std::size_t> end = j.end;
  std::size_t c = 0;  // the chip whose j run now
  while (end[c] == 0) ++c;
  for (std::size_t k = 0; k < j.count; k += 3 - G) {
    const std::size_t kt[2] = {k, G == 2 ? k : std::min(k + 1, j.count - 1)};
    Twin<M> diff[3];
    Twin<V> jvel[3];
    for (int d = 0; d < 3; ++d) {
      diff[d] = {wrap_sub(M::splat(j.pos[d][kt[0]]), ipos[d].a),
                 wrap_sub(M::splat(j.pos[d][kt[1]]), ipos[d].b)};
      const V v0 = V::splat(j.vel[d][kt[0]]);
      const V v1 = V::splat(j.vel[d][kt[1]]);
      jvel[d] = {v0, v1};
    }
    const V m0 = V::splat(j.mass[kt[0]]);
    const V m1 = V::splat(j.mass[kt[1]]);
    const Twin<V> mass{m0, m1};
    // Every live lane but the one on its own j-slot (the hardware
    // self-interaction cut).
    M use[2] = {live[gr[0]] & M{iidx[gr[0]].v != M::splat(j.index[kt[0]]).v},
                live[gr[1]] & M{iidx[gr[1]].v != M::splat(j.index[kt[1]]).v}};
    Addends<Twin<V>> a;
    M flagged[2] = {};
    if constexpr (Exact) {
      a = exact_chain(in.codec, diff, jvel, ivel, mass, qeps2);
    } else {
      a = op_chain(ops, in.codec, diff, jvel, ivel, mass, qeps2);
      flagged[0] = ops.a.take_flagged() & use[0];
      flagged[1] = ops.b.take_flagged() & use[1];
    }
    const bool flags = (flagged[0] | flagged[1]).any();
    if (flags) [[unlikely]] {
      redo(in, slots[gr[0]], part[gr[0]], kt[0], flagged[0], use[0]);
    }
    finish<0>(in, slots[gr[0]], part[gr[0]], kt[0], use[0], a);
    if constexpr (G == 1) {
      if (kt[0] + 1 == end[c]) {
        end_chip(in, slots[0], part[0], sum[0], c);
        c = next_chip(end, c, kt[0]);
      }
      if (kt[1] == kt[0]) continue;
    }
    if (flags) [[unlikely]] {
      redo(in, slots[gr[1]], part[gr[1]], kt[1], flagged[1], use[1]);
    }
    finish<1>(in, slots[gr[1]], part[gr[1]], kt[1], use[1], a);
    if (kt[1] + 1 == end[c]) {
      for (int h = 0; h < G; ++h) end_chip(in, slots[h], part[h], sum[h], c);
      c = next_chip(end, c, kt[1]);
    }
  }
  if (in.merged()) {
    for (int h = 0; h < G; ++h) sum[h].store_merged(in, slots[h]);
  }
  return true;
}

/// The whole pass: two lane groups at a time while the second would hold
/// more than two slots, else one; a lone group of one or two slots runs
/// at two lanes, where it costs less. A group with a word outside the
/// exact grid-scale window runs its slots through the scalar interact().
template <int W, bool Exact>
[[gnu::always_inline]] inline void lane_pass(const PassInputs& in) {
  const std::size_t n = in.iblock.size();
  for (std::size_t g = 0; g < n;) {
    int m = static_cast<int>(std::min<std::size_t>(2 * W, n - g));
    if (m <= W + 2) m = std::min(m, W);
    const bool lanes = m > W    ? lane_groups<W, 2, Exact>(in, g, m)
                       : m > 2 ? lane_groups<W, 1, Exact>(in, g, m)
                               : lane_groups<2, 1, Exact>(in, g, m);
    for (int s = 0; !lanes && s < m; ++s) {
      scalar_slot(in, g + static_cast<std::size_t>(s));
    }
    g += static_cast<std::size_t>(m);
  }
}

void pass_baseline(const PassInputs& in) {
  if (in.pf == nullptr) return lane_pass<2, true>(in);
  lane_pass<2, false>(in);
}

#if defined(__x86_64__)
/// The same at four lanes, compiled for x86-64-v3: run only where
/// host_lane_width() is 4. Everything it calls on lanes is always_inline,
/// so no wide vector crosses a call, and inline functions it does call
/// keep their baseline copies.
[[gnu::target("arch=x86-64-v3")]] void pass_wide(const PassInputs& in) {
  if (in.pf == nullptr) return lane_pass<4, true>(in);
  lane_pass<4, false>(in);
}
#endif

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
      wide_(kernel_lane_width() == 4),
      lanes_(!exact_ && LaneFormat<2>::supports(fmt.pipeline)) {}

void ForcePipeline::interact(const PredictorUnit::Predicted& j,
                             const IParticlePacket& ip, double eps2,
                             HwAccumulators& out,
                             HwNeighborRecorder* neighbors) const {
  std::size_t taken = 0;
  interact(j, ip, eps2, out, neighbors, SIZE_MAX, taken);
}

void ForcePipeline::interact(const PredictorUnit::Predicted& j,
                             const IParticlePacket& ip, double eps2,
                             HwAccumulators& out, HwNeighborRecorder* neighbors,
                             std::size_t fifo, std::size_t& taken) const {
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
    accumulate(exact_chain(codec_, diff, jvel, ivel, j.mass, eps2), j.index, ip.h2,
               out, neighbors, fifo, taken);
    return;
  }
  const FloatFormat& f = fmt_.pipeline;
  accumulate(op_chain(f, codec_, diff, jvel, ivel, j.mass, f.quantize(eps2)), j.index,
             f.quantize(ip.h2), out, neighbors, fifo, taken);
}

void ForcePipeline::interact_module(const PredictorUnit::PredictedBatch& j,
                                    std::span<const IParticlePacket> iblock,
                                    double eps2, const ModuleWords& out,
                                    std::span<HwNeighborRecorder> neighbors,
                                    std::size_t fifo) const {
  const std::size_t n = iblock.size();
  const std::size_t banks = j.end.size() * n;
  G6_REQUIRE(j.index.size() == j.count && j.mass.size() == j.count);
  G6_REQUIRE(!j.end.empty() && j.end.back() == j.count);
  G6_REQUIRE(out.merged.empty()
                 ? out.exps.empty() && out.chips.size() == banks
                 : out.merged.size() == n && out.exps.size() == n && out.chips.empty());
  G6_REQUIRE(neighbors.empty() || neighbors.size() == n);
  std::fill(out.merged.begin(), out.merged.end(), HwPartialWords{});
  if (j.count == 0) return;
  const FloatFormat& f = fmt_.pipeline;
  // Loop-invariant pure hoist: interact() quantizes this identical word
  // once per interaction; once per pass is the same bits.
  const PassInputs in{*this, codec_, exact_ ? nullptr : &f, j, iblock, out, neighbors,
                      fifo,  eps2,   exact_ ? eps2 : f.quantize(eps2)};
  if (!exact_ && !lanes_) {
    for (std::size_t s = 0; s < n; ++s) scalar_slot(in, s);
    return;
  }
#if defined(__x86_64__)
  if (wide_) return pass_wide(in);
#endif
  pass_baseline(in);
}

}  // namespace g6
