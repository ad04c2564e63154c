#pragma once
// WireServer — the remote serving loop (docs/SERVING.md, "Wire
// protocol").
//
// One WireServer fronts one GrapeService on one listening socket (unix
// or tcp). The loop is single-threaded BY DESIGN: the serving contract
// says "one control thread drives the scheduler", so the same thread
// multiplexes socket I/O (poll, non-blocking) with
// GrapeService::run_rounds(1) — accept and submissions land between
// rounds, quanta still parallelize on the shared src/exec pool
// underneath run_rounds, and no lock ever spans a round. Call run() from
// a pool task (bench/serve_load) or the tool's main thread
// (tools/grape6_served --listen).
//
// Clients speak grape6-wire-v1 request/response envelopes; a subscribe
// request upgrades the connection to streaming: per-quantum progress
// events, exactly-once terminal events, and (opt-in) final snapshot
// events replace report polling. Admission backpressure travels
// verbatim: a rejected submit's RejectReason name and message are the
// response the remote client sees — a remote reject is
// indistinguishable from a local one.
//
// Failure envelope: a frame that is not a valid envelope (bad framing,
// malformed JSON, wrong schema) poisons only ITS connection — the server
// queues one final error event and closes after flushing. A valid
// request with a bad payload (unknown method, missing keys) gets an
// ok:false response and the connection lives on.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

namespace g6::serve {
class GrapeService;
}  // namespace g6::serve

namespace g6::wire {

struct Endpoint;

/// Aggregate counters mirrored into the wire.* metrics.
struct WireServerStats {
  std::uint64_t connections = 0;   ///< total accepted
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t requests = 0;
  std::uint64_t events = 0;        ///< progress + terminal + snapshot + error
  std::uint64_t protocol_errors = 0;  ///< connections closed with error
};

class WireServer {
 public:
  /// Bind + listen on `listen_endpoint` ("unix:/path" or
  /// "tcp:host:port"). Throws SocketError on bind failure. The service
  /// must outlive the server, and no other thread may touch it while
  /// run() is executing.
  WireServer(serve::GrapeService& service, const std::string& listen_endpoint);
  ~WireServer();
  WireServer(const WireServer&) = delete;
  WireServer& operator=(const WireServer&) = delete;

  /// Serve until (a) a client requested drain AND no live work remains
  /// AND every queued byte is flushed, or (b) `stop` is raised (SIGTERM:
  /// returns promptly; the GrapeService's own stop_flag handles the
  /// scheduler-side graceful drain). Either way run() closes every
  /// connection and the listener before it returns, so a request sent
  /// afterwards fails on the client instead of waiting for an answer.
  /// The server serves once: a second run() accepts nothing.
  void run(std::atomic<bool>* stop);

  /// The bound endpoint (tcp:host:0 listeners report the real port).
  const Endpoint& endpoint() const;

  const WireServerStats& stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace g6::wire
