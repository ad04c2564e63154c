#pragma once
// RemoteClient — a ServeClient that crosses a socket.
//
// Mirrors serve::ServeClient's verbs (submit / report / state /
// final_state) over grape6-wire-v1 request/response envelopes, and adds
// the streaming verbs a remote tenant wants: subscribe() upgrades the
// connection, next_event() then yields per-quantum progress, terminal
// reports and (opt-in) final snapshots as the server pushes them — no
// polling.
//
// Blocking by design: a client has nothing better to do than wait for
// its response. Any response frame with ok:false, and any envelope the
// server should not have sent, throws WireError; transport failures
// throw SocketError. The client is single-threaded — one outstanding
// request at a time, correlated by a per-connection monotonic id.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "nbody/particle.hpp"
#include "obs/json.hpp"
#include "serve/types.hpp"
#include "wire/envelope.hpp"
#include "wire/framing.hpp"
#include "wire/socket.hpp"

namespace g6::wire {

/// One server-pushed event, parsed: `event` is
/// progress|terminal|snapshot|error, `root` the full envelope document.
struct WireEvent {
  std::string event;
  obs::JsonValue root;
};

class RemoteClient {
 public:
  /// Connect to a WireServer ("unix:/path" or "tcp:host:port"); throws
  /// SocketError when nobody is listening.
  explicit RemoteClient(const std::string& endpoint);

  /// Round-trip liveness probe.
  void ping();

  /// Admission-checked submission, same contract as ServeClient::submit:
  /// a false result is explicit backpressure with the server's
  /// RejectReason name in `reason_name` and prose in `message` —
  /// verbatim what a local submit would have returned.
  serve::SubmitResult submit(const serve::JobSpec& spec);
  /// RejectReason name of the last submit ("none" when accepted).
  const std::string& last_reject_reason() const { return last_reason_; }

  /// Upgrade to streaming: the server will push progress/terminal (and,
  /// with `snapshots`, final-snapshot) events for this connection's
  /// submissions — or for every job when `all_jobs` is set.
  void subscribe(bool snapshots = false, bool all_jobs = false);

  /// Next pushed event. Blocks when `wait` and none is buffered;
  /// nullopt on orderly server EOF (or immediately when !wait and the
  /// inbox is empty).
  std::optional<WireEvent> next_event(bool wait = true);

  /// Full JobReport as the server's JSON object: the keys of
  /// serve::write_job_report_keys, field-for-field the grape6_served
  /// report file's per-job object (which adds `snapshot` and `eq10`).
  obs::JsonValue report_json(serve::JobId id);
  std::string state_name(serve::JobId id);
  /// Final particle state of a completed job; `t` receives its time.
  /// Save with g6::save_snapshot for a byte-identical snapshot file.
  ParticleSet final_state(serve::JobId id, double* t = nullptr);

  /// Service-wide counters as the server's JSON object.
  obs::JsonValue stats_json();

  /// Ask the service to stop admitting; in-flight jobs still finish.
  void drain();

 private:
  /// Send one request, pump frames until its response arrives (events
  /// seen on the way are queued for next_event). Throws WireError on
  /// ok:false, returns the response document otherwise.
  obs::JsonValue request(const std::string& method,
                         const std::string& extra_json);
  /// Read + parse one frame into an envelope; nullopt on orderly EOF.
  std::optional<Envelope> read_envelope();

  Socket sock_;
  FrameDecoder decoder_;
  std::uint64_t next_id_ = 1;
  std::vector<WireEvent> inbox_;
  std::size_t inbox_pos_ = 0;
  std::string last_reason_;
};

}  // namespace g6::wire
