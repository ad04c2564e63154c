#pragma once
// grape6-wire-v1 envelopes — the JSON payloads inside wire frames
// (docs/SERVING.md, "Wire protocol").
//
// Three envelope kinds travel on a connection:
//
//   request   client -> server  {"schema","kind":"request","id",method,...}
//   response  server -> client  {"schema","kind":"response","id","ok",...}
//   event     server -> client  {"schema","kind":"event","event",...}
//
// Requests and responses correlate by `id` (client-assigned, monotonic
// per connection). Events are unsolicited: once a client subscribes, the
// server streams per-quantum progress, exactly-once terminal states and
// (optionally) final snapshots without being polled.
//
// Job specs cross the wire in the same JSON shape a
// grape6-serve-manifest-v1 job entry uses, and particle snapshots carry
// every double at 17 significant digits — std::strtod parses that back
// to the identical binary64, so a client-side snapshot file is
// byte-identical to one the server (or a standalone run) writes. That is
// the transport half of the serve_identity contract.

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>

#include "nbody/particle.hpp"
#include "obs/json.hpp"
#include "serve/types.hpp"

namespace g6::wire {

inline constexpr const char* kWireSchema = "grape6-wire-v1";

/// Envelope schema violation: wrong schema/kind, missing or mistyped
/// keys, malformed payloads. The server answers one with an error
/// response (or closes, if the frame was not even an envelope).
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Throw WireError(what): the JsonFail of every wire-side JSON reader.
[[noreturn]] void throw_wire_error(const std::string& what);

/// One parsed envelope. `root` keeps the full document so method
/// handlers can reach their payload keys.
struct Envelope {
  std::string kind;     ///< "request" | "response" | "event"
  std::uint64_t id = 0; ///< request/response correlation id
  std::string method;   ///< requests: submit|report|state|final|subscribe|stats|drain|ping
  std::string event;    ///< events: progress|terminal|snapshot
  obs::JsonValue root;
};

/// Parse and validate one envelope; throws WireError on any deviation
/// (bad JSON, wrong schema, unknown kind, missing id/method/event).
Envelope parse_envelope(std::string_view text);

/// serve::write_job_spec: the manifest-shaped job object.
void encode_job_spec(std::ostream& os, const serve::JobSpec& spec);

/// serve::read_job_spec with WireError and the "spec" prefix. Strict
/// keys; value-level validation (n >= 2, ...) is admission's job — an
/// invalid spec travels to the server and comes back as an explicit
/// kInvalidSpec rejection, same as a local submit.
serve::JobSpec decode_job_spec(const obs::JsonValue& j);

/// Write a particle snapshot payload:
/// {"t":..,"n":..,"bodies":[[m,x,y,z,vx,vy,vz],...]} at 17 digits.
void encode_snapshot(std::ostream& os, const ParticleSet& set, double t);

/// Parse a snapshot payload; `t` receives the simulation time.
ParticleSet decode_snapshot(const obs::JsonValue& j, double* t);

}  // namespace g6::wire
