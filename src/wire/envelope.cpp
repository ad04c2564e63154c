#include "wire/envelope.hpp"

#include <limits>
#include <optional>
#include <ostream>
#include <set>
#include <sstream>
#include <type_traits>

#include "util/check.hpp"

namespace g6::wire {

namespace {

using obs::JsonValue;
using obs::json_escape;

[[noreturn]] void fail(const std::string& what) { throw WireError(what); }

double number_at(const JsonValue& obj, const std::string& key,
                 const std::string& where) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) fail(where + ": missing key '" + key + "'");
  if (!v->is_number()) fail(where + ": key '" + key + "' must be a number");
  return v->as_number();
}

template <typename Int = std::size_t>
Int count_at(const JsonValue& obj, const std::string& key,
             const std::string& where) {
  std::optional<Int> v = obs::json_integer<Int>(number_at(obj, key, where));
  if constexpr (std::is_signed_v<Int>) {
    if (v && *v < 0) v.reset();
  }
  if (!v) {
    fail(where + ": key '" + key +
         "' must be a non-negative integer (at most " +
         std::to_string(std::numeric_limits<Int>::max()) + ")");
  }
  return *v;
}

std::string string_at(const JsonValue& obj, const std::string& key,
                      const std::string& where) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) fail(where + ": missing key '" + key + "'");
  if (!v->is_string()) fail(where + ": key '" + key + "' must be a string");
  return v->as_string();
}

/// 17 significant digits: parses back to the identical binary64.
std::string num(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

}  // namespace

Envelope parse_envelope(std::string_view text) {
  G6_REQUIRE(!text.empty());
  Envelope env;
  try {
    env.root = JsonValue::parse(text);
  } catch (const std::exception& e) {
    fail(std::string("envelope is not valid JSON: ") + e.what());
  }
  if (!env.root.is_object()) fail("envelope must be a JSON object");
  const std::string schema = string_at(env.root, "schema", "envelope");
  if (schema != kWireSchema) {
    fail("envelope: schema '" + schema + "' (expected " + kWireSchema + ")");
  }
  env.kind = string_at(env.root, "kind", "envelope");
  if (env.kind == "request") {
    env.id = count_at<std::uint64_t>(env.root, "id", "request");
    env.method = string_at(env.root, "method", "request");
  } else if (env.kind == "response") {
    env.id = count_at<std::uint64_t>(env.root, "id", "response");
    const JsonValue* ok = env.root.find("ok");
    if (ok == nullptr) fail("response: missing key 'ok'");
  } else if (env.kind == "event") {
    env.event = string_at(env.root, "event", "event");
  } else {
    fail("envelope: unknown kind '" + env.kind + "'");
  }
  return env;
}

void encode_job_spec(std::ostream& os, const serve::JobSpec& spec) {
  os << "{\"name\":\"" << json_escape(spec.name) << "\",\"model\":\""
     << json_escape(spec.model) << "\",\"n\":" << spec.n
     << ",\"w0\":" << num(spec.w0) << ",\"t_end\":" << num(spec.t_end)
     << ",\"eps\":" << num(spec.eps) << ",\"eta\":" << num(spec.eta)
     << ",\"seed\":" << spec.seed << ",\"boards\":" << spec.boards
     << ",\"boards_min\":" << spec.boards_min
     << ",\"boards_max\":" << spec.boards_max << ",\"priority\":\""
     << serve::priority_name(spec.priority)
     << "\",\"deadline_rounds\":" << spec.deadline_rounds
     << ",\"chaos_fail_quanta\":" << spec.chaos_fail_quanta << "}";
}

serve::JobSpec decode_job_spec(const obs::JsonValue& j) {
  const std::string where = "spec";
  if (!j.is_object()) fail(where + " must be a JSON object");
  // Same allowed-key set as a manifest job entry: a spec a manifest
  // accepts crosses the wire unchanged, and vice versa.
  const std::set<std::string> allowed = {
      "name",       "model",      "n",        "w0",
      "t_end",      "eps",        "eta",      "seed",
      "boards",     "boards_min", "boards_max", "priority",
      "deadline_rounds", "chaos_fail_quanta"};
  for (const auto& [key, value] : j.members()) {
    (void)value;
    if (allowed.count(key) == 0) fail(where + ": unknown key '" + key + "'");
  }
  serve::JobSpec spec;
  spec.name = string_at(j, "name", where);
  if (j.find("model")) spec.model = string_at(j, "model", where);
  if (j.find("n")) spec.n = count_at(j, "n", where);
  if (j.find("w0")) spec.w0 = number_at(j, "w0", where);
  if (j.find("t_end")) spec.t_end = number_at(j, "t_end", where);
  if (j.find("eps")) spec.eps = number_at(j, "eps", where);
  if (j.find("eta")) spec.eta = number_at(j, "eta", where);
  if (j.find("seed")) {
    spec.seed = count_at<unsigned>(j, "seed", where);
  }
  if (j.find("boards")) spec.boards = count_at(j, "boards", where);
  if (j.find("boards_min")) spec.boards_min = count_at(j, "boards_min", where);
  if (j.find("boards_max")) spec.boards_max = count_at(j, "boards_max", where);
  if (j.find("priority")) {
    const std::string p = string_at(j, "priority", where);
    if (p == "interactive") {
      spec.priority = serve::Priority::kInteractive;
    } else if (p == "batch") {
      spec.priority = serve::Priority::kBatch;
    } else {
      fail(where + ": unknown priority '" + p + "'");
    }
  }
  if (j.find("deadline_rounds")) {
    spec.deadline_rounds =
        count_at<std::uint64_t>(j, "deadline_rounds", where);
  }
  if (j.find("chaos_fail_quanta")) {
    spec.chaos_fail_quanta = count_at<int>(j, "chaos_fail_quanta", where);
  }
  return spec;
}

void encode_snapshot(std::ostream& os, const ParticleSet& set, double t) {
  os << "{\"t\":" << num(t) << ",\"n\":" << set.size() << ",\"bodies\":[";
  bool first = true;
  for (const Body& b : set.bodies()) {
    if (!first) os << ',';
    first = false;
    os << '[' << num(b.mass) << ',' << num(b.pos.x) << ',' << num(b.pos.y)
       << ',' << num(b.pos.z) << ',' << num(b.vel.x) << ',' << num(b.vel.y)
       << ',' << num(b.vel.z) << ']';
  }
  os << "]}";
}

ParticleSet decode_snapshot(const obs::JsonValue& j, double* t) {
  const std::string where = "snapshot";
  if (!j.is_object()) fail(where + " must be a JSON object");
  if (t != nullptr) *t = number_at(j, "t", where);
  const std::size_t n = count_at(j, "n", where);
  const JsonValue* bodies = j.find("bodies");
  if (bodies == nullptr || !bodies->is_array()) {
    fail(where + ": key 'bodies' must be an array");
  }
  if (bodies->items().size() != n) {
    fail(where + ": n=" + std::to_string(n) + " but " +
         std::to_string(bodies->items().size()) + " bodies");
  }
  ParticleSet set;
  set.reserve(n);
  for (const JsonValue& row : bodies->items()) {
    if (!row.is_array() || row.items().size() != 7) {
      fail(where + ": each body is [m,x,y,z,vx,vy,vz]");
    }
    for (const JsonValue& c : row.items()) {
      if (!c.is_number()) fail(where + ": body components must be numbers");
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
