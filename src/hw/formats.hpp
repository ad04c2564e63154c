#pragma once
// Hardware number formats and memory images (Sec 3.4 of the paper).
//
// A j-particle lives in chip-local memory as fixed-point positions plus
// reduced-precision floating-point derivatives; an i-particle arrives from
// the host as fixed-point position + float velocity; results leave the
// chip in block floating point. Conversions to/from host doubles happen in
// exactly one place (HostInterface quantizers below) so accuracy studies
// can swap formats wholesale.

#include <cstdint>

#include "hermite/types.hpp"
#include "util/fixedpoint.hpp"
#include "util/softfloat.hpp"
#include "util/vec3.hpp"

namespace g6 {

/// The set of formats used by the pipelines. Defaults reproduce GRAPE-6;
/// tests/ablations swap in wider or narrower variants.
struct NumberFormats {
  /// Coordinate full range (software-chosen scale of the 64-bit word).
  double coord_range = 128.0;
  FloatFormat pipeline = formats::pipeline();
  FloatFormat velocity = formats::velocity();
  FloatFormat predictor = formats::predictor();

  FixedPointCodec coord_codec() const { return FixedPointCodec(coord_range); }

  /// Everything in IEEE double: used to isolate timing behaviour from
  /// rounding in A/B tests.
  static NumberFormats exact() {
    NumberFormats f;
    f.pipeline = formats::ieee_double();
    f.velocity = formats::ieee_double();
    f.predictor = formats::ieee_double();
    return f;
  }
};

/// j-particle as stored in chip memory: the predictor data of Eqs (6)-(7).
struct StoredJParticle {
  std::uint32_t index = 0;  ///< global particle id (self-interaction cut)
  double mass = 0.0;        ///< quantized to pipeline format
  double t0 = 0.0;          ///< block times are exact dyadics
  std::int64_t pos[3] = {0, 0, 0};  ///< 64-bit fixed point
  Vec3 vel;   ///< quantized
  Vec3 acc;   ///< quantized
  Vec3 jerk;  ///< quantized
  Vec3 snap;  ///< quantized
};

/// i-particle as broadcast to the pipelines.
struct IParticlePacket {
  std::uint32_t index = 0;
  std::int64_t pos[3] = {0, 0, 0};  ///< predicted position, fixed point
  Vec3 vel;                          ///< predicted velocity, quantized
  double h2 = 0.0;  ///< neighbor search radius^2 (0 disables the list)
};

/// Block exponents for one i-particle's accumulators, supplied by the host
/// before the run (Sec 3.4); the host remembers last step's values.
struct BlockExponents {
  int acc = 8;
  int jerk = 8;
  int pot = 8;
};

/// Quantize a host-side JParticle into the memory image.
StoredJParticle quantize_j_particle(const JParticle& p, std::uint32_t index,
                                    const NumberFormats& fmt);

/// Quantize a host-side predicted i-particle into the broadcast packet.
IParticlePacket quantize_i_particle(const PredictedState& p, const NumberFormats& fmt);

}  // namespace g6
