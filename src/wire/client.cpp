#include "wire/client.hpp"

#include <sstream>

#include "util/check.hpp"
#include "wire/envelope.hpp"

namespace g6::wire {

namespace {

/// The response body of `doc`, read strictly.
obs::JsonObjectReader response(const obs::JsonValue& doc) {
  return obs::JsonObjectReader(doc, "response", throw_wire_error);
}

}  // namespace

RemoteClient::RemoteClient(const std::string& endpoint)
    : sock_(connect_to(parse_endpoint(endpoint))) {
  G6_REQUIRE(sock_.valid());
}

std::optional<Envelope> RemoteClient::read_envelope() {
  std::string payload;
  while (true) {
    const FrameDecoder::Status st = decoder_.next(&payload);
    if (st == FrameDecoder::Status::kFrame) return parse_envelope(payload);
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
    std::optional<Envelope> env = read_envelope();
    if (!env) {
      throw WireError("server closed before responding to '" + method + "'");
    }
    if (env->kind == "event") {
      // Unsolicited push racing our response: keep it for next_event().
      inbox_.push_back({env->event, std::move(env->root)});
      continue;
    }
    if (env->kind != "response") {
      throw WireError("unexpected '" + env->kind + "' envelope from server");
    }
    if (env->id != id) {
      throw WireError("response id mismatch (single in-flight request "
                      "protocol violated)");
    }
    const obs::JsonObjectReader r = response(env->root);
    if (!r.boolean("ok")) {
      throw WireError("server rejected '" + method + "': " + r.string("error"));
    }
    return std::move(env->root);
  }
}

void RemoteClient::ping() { request("ping", ""); }

serve::SubmitResult RemoteClient::submit(const serve::JobSpec& spec) {
  std::ostringstream os;
  os << ",\"spec\":";
  encode_job_spec(os, spec);
  const obs::JsonValue doc = request("submit", os.str());
  const obs::JsonObjectReader body = response(doc);
  serve::SubmitResult r;
  r.id = body.count<serve::JobId>("job");
  r.accepted = body.boolean("accepted");
  last_reason_ = body.string("reason");
  r.message = body.string("message");
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
    std::optional<Envelope> env = read_envelope();
    if (!env) return std::nullopt;  // server is done streaming
    if (env->kind != "event") {
      throw WireError("unsolicited '" + env->kind + "' envelope while waiting "
                      "for events");
    }
    inbox_.push_back({env->event, std::move(env->root)});
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
  return response(doc).at("report");
}

std::string RemoteClient::state_name(serve::JobId id) {
  const obs::JsonValue doc =
      request("state", ",\"job\":" + std::to_string(id));
  return response(doc).string("state");
}

ParticleSet RemoteClient::final_state(serve::JobId id, double* t) {
  const obs::JsonValue doc =
      request("final", ",\"job\":" + std::to_string(id));
  return decode_snapshot(response(doc).at("snapshot"), t);
}

obs::JsonValue RemoteClient::stats_json() {
  const obs::JsonValue doc = request("stats", "");
  return response(doc).at("stats");
}

void RemoteClient::drain() { request("drain", ""); }

}  // namespace g6::wire
