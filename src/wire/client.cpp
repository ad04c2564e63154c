#include "wire/client.hpp"

#include <sstream>

#include "util/check.hpp"
#include "wire/envelope.hpp"

namespace g6::wire {

namespace {

std::uint64_t u64_at(const obs::JsonValue& j, const char* key) {
  const obs::JsonValue* v = j.find(key);
  if (v == nullptr || !v->is_number()) {
    throw WireError(std::string("response missing numeric key '") + key +
                    "'");
  }
  return static_cast<std::uint64_t>(v->as_number());
}

std::string string_at(const obs::JsonValue& j, const char* key) {
  const obs::JsonValue* v = j.find(key);
  if (v == nullptr || !v->is_string()) {
    throw WireError(std::string("response missing string key '") + key +
                    "'");
  }
  return v->as_string();
}

}  // namespace

RemoteClient::RemoteClient(const std::string& endpoint)
    : sock_(connect_to(parse_endpoint(endpoint))) {
  G6_REQUIRE(sock_.valid());
}

std::optional<obs::JsonValue> RemoteClient::read_envelope() {
  std::string payload;
  while (true) {
    const FrameDecoder::Status st = decoder_.next(&payload);
    if (st == FrameDecoder::Status::kFrame) {
      return obs::JsonValue::parse(payload);
    }
    if (st == FrameDecoder::Status::kError) {
      throw WireError("server sent a bad frame: " + decoder_.error());
    }
    std::string chunk;
    const long n = sock_.recv_some(&chunk);
    if (n == 0) {
      if (decoder_.buffered() != 0) {
        throw WireError("server closed mid-frame (torn frame)");
      }
      return std::nullopt;  // orderly EOF between frames
    }
    if (n > 0) decoder_.feed(chunk);
    // n < 0 cannot happen on a blocking socket; recv_some loops for us.
  }
}

obs::JsonValue RemoteClient::request(const std::string& method,
                                     const std::string& extra_json) {
  const std::uint64_t id = next_id_++;
  std::ostringstream os;
  os << "{\"schema\":\"" << kWireSchema
     << "\",\"kind\":\"request\",\"id\":" << id << ",\"method\":\"" << method
     << "\"" << extra_json << "}";
  try {
    sock_.send_all(encode_frame(os.str()));
  } catch (const SocketError& e) {
    // A unix peer that already hung up fails the send (EPIPE) before
    // the read below could see its EOF: the same closed server.
    throw WireError("server closed before responding to '" + method +
                    "': " + e.what());
  }
  while (true) {
    std::optional<obs::JsonValue> doc = read_envelope();
    if (!doc) {
      throw WireError("server closed before responding to '" + method + "'");
    }
    const std::string kind = string_at(*doc, "kind");
    if (kind == "event") {
      // Unsolicited push racing our response: keep it for next_event().
      inbox_.push_back({string_at(*doc, "event"), std::move(*doc)});
      continue;
    }
    if (kind != "response") {
      throw WireError("unexpected '" + kind + "' envelope from server");
    }
    if (u64_at(*doc, "id") != id) {
      throw WireError("response id mismatch (single in-flight request "
                      "protocol violated)");
    }
    const obs::JsonValue* ok = doc->find("ok");
    if (ok == nullptr) throw WireError("response missing key 'ok'");
    if (!ok->as_bool()) {
      throw WireError("server rejected '" + method +
                      "': " + string_at(*doc, "error"));
    }
    return std::move(*doc);
  }
}

void RemoteClient::ping() { request("ping", ""); }

serve::SubmitResult RemoteClient::submit(const serve::JobSpec& spec) {
  std::ostringstream os;
  os << ",\"spec\":";
  encode_job_spec(os, spec);
  const obs::JsonValue doc = request("submit", os.str());
  serve::SubmitResult r;
  r.id = static_cast<serve::JobId>(u64_at(doc, "job"));
  const obs::JsonValue* accepted = doc.find("accepted");
  if (accepted == nullptr) throw WireError("submit: missing 'accepted'");
  r.accepted = accepted->as_bool();
  last_reason_ = string_at(doc, "reason");
  r.message = string_at(doc, "message");
  // The enum name survives the wire as text; keep the enum itself
  // coarse (accepted vs not) and let callers read last_reject_reason()
  // for the precise cause.
  r.reason = r.accepted ? serve::RejectReason::kNone
                        : serve::RejectReason::kQueueFull;
  for (int i = 0; i <= static_cast<int>(serve::RejectReason::kQuarantined);
       ++i) {
    const auto reason = static_cast<serve::RejectReason>(i);
    if (last_reason_ == serve::reject_reason_name(reason)) {
      r.reason = reason;
      break;
    }
  }
  return r;
}

void RemoteClient::subscribe(bool snapshots, bool all_jobs) {
  std::ostringstream os;
  os << ",\"snapshots\":" << (snapshots ? "true" : "false")
     << ",\"all\":" << (all_jobs ? "true" : "false");
  request("subscribe", os.str());
}

std::optional<WireEvent> RemoteClient::next_event(bool wait) {
  while (inbox_pos_ >= inbox_.size()) {
    inbox_.clear();
    inbox_pos_ = 0;
    if (!wait) return std::nullopt;
    std::optional<obs::JsonValue> doc = read_envelope();
    if (!doc) return std::nullopt;  // server is done streaming
    const std::string kind = string_at(*doc, "kind");
    if (kind != "event") {
      throw WireError("unsolicited '" + kind + "' envelope while waiting "
                      "for events");
    }
    inbox_.push_back({string_at(*doc, "event"), std::move(*doc)});
  }
  WireEvent ev = std::move(inbox_[inbox_pos_]);
  ++inbox_pos_;
  if (inbox_pos_ >= inbox_.size()) {
    inbox_.clear();
    inbox_pos_ = 0;
  }
  return ev;
}

obs::JsonValue RemoteClient::report_json(serve::JobId id) {
  const obs::JsonValue doc =
      request("report", ",\"job\":" + std::to_string(id));
  const obs::JsonValue* rep = doc.find("report");
  if (rep == nullptr) throw WireError("report: missing 'report'");
  return *rep;
}

std::string RemoteClient::state_name(serve::JobId id) {
  return string_at(request("state", ",\"job\":" + std::to_string(id)),
                   "state");
}

ParticleSet RemoteClient::final_state(serve::JobId id, double* t) {
  const obs::JsonValue doc =
      request("final", ",\"job\":" + std::to_string(id));
  const obs::JsonValue* snap = doc.find("snapshot");
  if (snap == nullptr) throw WireError("final: missing 'snapshot'");
  return decode_snapshot(*snap, t);
}

obs::JsonValue RemoteClient::stats_json() {
  const obs::JsonValue doc = request("stats", "");
  const obs::JsonValue* st = doc.find("stats");
  if (st == nullptr) throw WireError("stats: missing 'stats'");
  return *st;
}

void RemoteClient::drain() { request("drain", ""); }

}  // namespace g6::wire
