#include "wire/envelope.hpp"

#include <ostream>
#include <vector>

#include "util/check.hpp"

namespace g6::wire {

using obs::JsonObjectReader;
using obs::JsonValue;
using obs::json_number;

void throw_wire_error(const std::string& what) { throw WireError(what); }

Envelope parse_envelope(std::string_view text) {
  G6_REQUIRE(!text.empty());
  Envelope env;
  try {
    env.root = JsonValue::parse(text);
  } catch (const std::exception& e) {
    throw_wire_error(std::string("envelope is not valid JSON: ") + e.what());
  }
  const JsonObjectReader r(env.root, "envelope", throw_wire_error);
  const std::string& schema = r.string("schema");
  if (schema != kWireSchema) {
    r.fail("schema '" + schema + "' (expected " + kWireSchema + ")");
  }
  env.kind = r.string("kind");
  const JsonObjectReader body(env.root, env.kind, throw_wire_error);
  if (env.kind == "request") {
    env.id = body.count<std::uint64_t>("id");
    env.method = body.string("method");
  } else if (env.kind == "response") {
    env.id = body.count<std::uint64_t>("id");
    (void)body.boolean("ok");
  } else if (env.kind == "event") {
    env.event = body.string("event");
  } else {
    r.fail("unknown kind '" + env.kind + "'");
  }
  return env;
}

void encode_job_spec(std::ostream& os, const serve::JobSpec& spec) {
  serve::write_job_spec(os, spec);
}

serve::JobSpec decode_job_spec(const obs::JsonValue& j) {
  return serve::read_job_spec(j, "spec", throw_wire_error);
}

void encode_snapshot(std::ostream& os, const ParticleSet& set, double t) {
  os << "{\"t\":" << json_number(t) << ",\"n\":" << set.size()
     << ",\"bodies\":[";
  bool first = true;
  for (const Body& b : set.bodies()) {
    if (!first) os << ',';
    first = false;
    os << '[' << json_number(b.mass) << ',' << json_number(b.pos.x) << ','
       << json_number(b.pos.y) << ',' << json_number(b.pos.z) << ','
       << json_number(b.vel.x) << ',' << json_number(b.vel.y) << ','
       << json_number(b.vel.z) << ']';
  }
  os << "]}";
}

ParticleSet decode_snapshot(const obs::JsonValue& j, double* t) {
  const JsonObjectReader r(j, "snapshot", throw_wire_error);
  if (t != nullptr) *t = r.number("t");
  const std::size_t n = r.count<std::size_t>("n");
  const std::vector<JsonValue>& bodies = r.array("bodies");
  if (bodies.size() != n) {
    r.fail("n=" + std::to_string(n) + " but " +
           std::to_string(bodies.size()) + " bodies");
  }
  ParticleSet set;
  set.reserve(n);
  for (const JsonValue& row : bodies) {
    if (!row.is_array() || row.items().size() != 7) {
      r.fail("each body is [m,x,y,z,vx,vy,vz]");
    }
    for (const JsonValue& c : row.items()) {
      if (!c.is_number()) r.fail("body components must be numbers");
    }
    Body b;
    b.mass = row.items()[0].as_number();
    b.pos = Vec3(row.items()[1].as_number(), row.items()[2].as_number(),
                 row.items()[3].as_number());
    b.vel = Vec3(row.items()[4].as_number(), row.items()[5].as_number(),
                 row.items()[6].as_number());
    set.add(b);
  }
  return set;
}

}  // namespace g6::wire
