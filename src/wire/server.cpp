#include "wire/server.hpp"

#include <algorithm>
#include <cstddef>
#include <sstream>
#include <vector>

#include "obs/clock.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "serve/serve.hpp"
#include "util/check.hpp"
#include "wire/envelope.hpp"
#include "wire/framing.hpp"
#include "wire/socket.hpp"

namespace g6::wire {

namespace {

using obs::JsonObjectReader;
using obs::json_escape;
using obs::json_number;

obs::MetricsRegistry& reg() { return obs::MetricsRegistry::global(); }

void write_envelope_head(std::ostream& os, const char* kind) {
  os << "{\"schema\":\"" << kWireSchema << "\",\"kind\":\"" << kind << "\"";
}

}  // namespace

struct WireServer::Impl {
  struct Conn {
    std::uint64_t id = 0;
    Socket sock;
    FrameDecoder decoder;
    std::string outbuf;
    std::size_t out_pos = 0;  ///< flushed prefix of outbuf
    bool subscribed = false;
    bool want_snapshots = false;
    bool all_jobs = false;
    bool closing = false;  ///< flush remaining outbuf, then close
    std::vector<serve::JobId> submitted;
  };

  /// Last observed progress per job, for event diffing after each round.
  struct JobTrack {
    std::uint64_t quanta = 0;
    serve::JobState state = serve::JobState::kQueued;
    std::size_t boards_now = 0;
    std::uint64_t resizes = 0;
    bool progress_sent = false;
    bool terminal_sent = false;
  };

  serve::GrapeService& service;
  ListenSocket listener;
  std::vector<std::unique_ptr<Conn>> conns;
  std::vector<JobTrack> tracks;  ///< index = job id - 1
  WireServerStats stats;
  std::uint64_t next_conn_id = 1;
  bool drain_requested = false;

  Impl(serve::GrapeService& svc, const std::string& listen_endpoint)
      : service(svc), listener(parse_endpoint(listen_endpoint)) {}

  void enqueue(Conn& c, const std::string& payload) {
    c.outbuf += encode_frame(payload);
    ++stats.frames_out;
    reg().counter("wire.frames_out").add();
    reg().counter("wire.bytes_out").add(kFrameHeaderBytes + payload.size());
  }

  bool wants(const Conn& c, serve::JobId job) const {
    if (!c.subscribed) return false;
    if (c.all_jobs) return true;
    return std::find(c.submitted.begin(), c.submitted.end(), job) !=
           c.submitted.end();
  }

  void broadcast(serve::JobId job, const std::string& payload) {
    for (auto& c : conns) {
      if (!c->closing && wants(*c, job)) {
        enqueue(*c, payload);
        ++stats.events;
        reg().counter("wire.events").add();
      }
    }
  }

  void update_subscriber_gauge() {
    std::size_t n = 0;
    for (const auto& c : conns) {
      if (c->subscribed && !c->closing) ++n;
    }
    reg().gauge("wire.subscribers").set(static_cast<double>(n));
  }

  // ---- streaming ---------------------------------------------------------

  /// Diff every job's report against its track and stream what changed.
  /// Called after each scheduler round — this is what replaces report
  /// polling: per-quantum progress, exactly-once terminal states.
  void emit_events() {
    const std::vector<serve::JobId> ids = service.jobs();
    if (tracks.size() < ids.size()) tracks.resize(ids.size());
    for (serve::JobId id : ids) {
      JobTrack& track = tracks[id - 1];
      if (track.terminal_sent) continue;
      const serve::JobReport rep = service.report(id);
      const bool terminal = rep.state != serve::JobState::kQueued &&
                            rep.state != serve::JobState::kRunning;
      const bool progressed =
          rep.quanta != track.quanta || rep.state != track.state ||
          rep.boards_now != track.boards_now || rep.resizes != track.resizes;
      track.quanta = rep.quanta;
      track.state = rep.state;
      track.boards_now = rep.boards_now;
      track.resizes = rep.resizes;
      // A job leased and finished in the same round goes from queued
      // straight to terminal; it still streams the one progress event
      // that shows it ran.
      const bool unseen_run =
          terminal && rep.quanta > 0 && !track.progress_sent;
      if ((progressed && !terminal) || unseen_run) {
        track.progress_sent = true;
        std::ostringstream os;
        write_envelope_head(os, "event");
        os << ",\"event\":\"progress\",\"job\":" << rep.id << ",\"name\":\""
           << json_escape(rep.name) << "\",\"state\":\""
           << serve::job_state_name(rep.state)
           << "\",\"quanta\":" << rep.quanta
           << ",\"t\":" << json_number(rep.t_reached)
           << ",\"steps\":" << rep.steps
           << ",\"blocksteps\":" << rep.blocksteps
           << ",\"boards\":" << rep.boards_now
           << ",\"resizes\":" << rep.resizes << "}";
        broadcast(id, os.str());
      }
      if (terminal) {
        track.terminal_sent = true;
        std::ostringstream os;
        write_envelope_head(os, "event");
        os << ",\"event\":\"terminal\",\"job\":" << rep.id << ",\"report\":{";
        serve::write_job_report_keys(os, rep);
        os << "}}";
        broadcast(id, os.str());
        if (rep.state == serve::JobState::kCompleted) {
          // Snapshot events are opt-in (a 17-digit body table is the
          // bulk of the traffic) and per-connection.
          std::string snap;
          for (auto& c : conns) {
            if (c->closing || !c->want_snapshots || !wants(*c, id)) continue;
            if (snap.empty()) {
              double t = 0.0;
              const ParticleSet& set = service.final_state(id, &t);
              std::ostringstream ss;
              write_envelope_head(ss, "event");
              ss << ",\"event\":\"snapshot\",\"job\":" << rep.id
                 << ",\"name\":\"" << json_escape(rep.name)
                 << "\",\"snapshot\":";
              encode_snapshot(ss, set, t);
              ss << "}";
              snap = ss.str();
            }
            enqueue(*c, snap);
            ++stats.events;
            reg().counter("wire.events").add();
          }
        }
      }
    }
  }

  // ---- request handling --------------------------------------------------

  void handle_request(Conn& c, const Envelope& env) {
    ++stats.requests;
    reg().counter("wire.requests").add();
    const double t0 = obs::monotonic_seconds();
    std::ostringstream os;
    write_envelope_head(os, "response");
    os << ",\"id\":" << env.id << ",\"ok\":true";

    // Every key of the request body is type- and range-checked here. A
    // bad one, like an unknown job or method, throws WireError, which
    // drain_frames answers with ok:false.
    const JsonObjectReader req(env.root, env.method, throw_wire_error);
    if (env.method == "ping") {
      os << ",\"pong\":true}";
    } else if (env.method == "submit") {
      const serve::JobSpec spec = decode_job_spec(req.at("spec"));
      const serve::SubmitResult r = service.submit(spec);
      // Backpressure travels verbatim: the reject reason name and
      // message a local ServeClient would see ARE the wire payload.
      os << ",\"job\":" << r.id << ",\"accepted\":"
         << (r.accepted ? "true" : "false") << ",\"reason\":\""
         << serve::reject_reason_name(r.reason) << "\",\"message\":\""
         << json_escape(r.message) << "\"}";
      if (r.accepted) c.submitted.push_back(r.id);
    } else if (env.method == "report" || env.method == "state" ||
               env.method == "final") {
      const auto job = req.count<serve::JobId>("job");
      const std::vector<serve::JobId> ids = service.jobs();
      if (job < 1 || job > ids.size()) {
        req.fail("unknown job " + std::to_string(job));
      }
      if (env.method == "report") {
        // The report file's per-job keys, so a remote report is
        // field-for-field the local one.
        os << ",\"report\":{";
        serve::write_job_report_keys(os, service.report(job));
        os << "}}";
      } else if (env.method == "state") {
        os << ",\"state\":\"" << serve::job_state_name(service.state(job))
           << "\"}";
      } else {
        if (service.state(job) != serve::JobState::kCompleted) {
          req.fail("job " + std::to_string(job) + " has not completed");
        }
        double t = 0.0;
        const ParticleSet& set = service.final_state(job, &t);
        os << ",\"snapshot\":";
        encode_snapshot(os, set, t);
        os << "}";
      }
    } else if (env.method == "subscribe") {
      bool snapshots = false;
      bool all = false;
      req.boolean("snapshots", &snapshots);
      req.boolean("all", &all);
      c.subscribed = true;
      c.want_snapshots = snapshots;
      c.all_jobs = all;
      update_subscriber_gauge();
      os << ",\"subscribed\":true}";
    } else if (env.method == "stats") {
      const serve::ServiceStats& st = service.stats();
      os << ",\"stats\":{\"boards\":" << service.config().pool_boards()
         << ",\"healthy_boards\":" << service.healthy_boards()
         << ",\"rounds\":" << st.rounds << ",\"submitted\":" << st.submitted
         << ",\"rejected\":" << st.rejected
         << ",\"completed\":" << st.completed << ",\"failed\":" << st.failed
         << ",\"quarantined\":" << st.quarantined
         << ",\"preemptions\":" << st.preemptions
         << ",\"revocations\":" << st.revocations
         << ",\"requeues\":" << st.requeues << ",\"resizes\":" << st.resizes
         << ",\"boards_dead\":" << st.boards_dead << "}}";
    } else if (env.method == "drain") {
      service.drain();
      drain_requested = true;
      os << ",\"draining\":true}";
    } else {
      throw_wire_error("unknown method '" + env.method + "'");
    }
    enqueue(c, os.str());
    reg()
        .histogram("wire.rpc_s", 0.0, 0.1, 50)
        .observe(obs::monotonic_seconds() - t0);
  }

  /// Protocol failure: stream one final error event, then flush & close.
  void close_with_error(Conn& c, const std::string& message) {
    ++stats.protocol_errors;
    reg().counter("wire.protocol_errors").add();
    obs::log_warn("wire: conn %llu closed with error: %s",
                  static_cast<unsigned long long>(c.id), message.c_str());
    std::ostringstream os;
    write_envelope_head(os, "event");
    os << ",\"event\":\"error\",\"message\":\"" << json_escape(message)
       << "\"}";
    enqueue(c, os.str());
    ++stats.events;
    reg().counter("wire.events").add();
    c.closing = true;
    update_subscriber_gauge();
  }

  void drain_frames(Conn& c) {
    std::string payload;
    while (!c.closing) {
      const FrameDecoder::Status st = c.decoder.next(&payload);
      if (st == FrameDecoder::Status::kNeedMore) break;
      if (st == FrameDecoder::Status::kError) {
        close_with_error(c, "framing: " + c.decoder.error());
        break;
      }
      ++stats.frames_in;
      reg().counter("wire.frames_in").add();
      Envelope env;
      try {
        env = parse_envelope(payload);
      } catch (const WireError& e) {
        // Malformed JSON / bad schema: unrecoverable (the peer is not
        // speaking our protocol) -> close with error.
        close_with_error(c, e.what());
        break;
      }
      if (env.kind != "request") {
        close_with_error(c, "only requests flow client->server");
        break;
      }
      try {
        handle_request(c, env);
      } catch (const WireError& e) {
        // The envelope was sound but the payload was not (bad spec
        // keys, wrong value types): the peer speaks the protocol, so
        // answer ok:false and keep the connection.
        std::ostringstream os;
        write_envelope_head(os, "response");
        os << ",\"id\":" << env.id << ",\"ok\":false,\"error\":\""
           << json_escape(e.what()) << "\"}";
        enqueue(c, os.str());
      }
    }
  }

  /// Serve until drained or stopped, then hang up: with nothing left to
  /// answer, every client reads EOF instead of waiting on a request.
  void pump(std::atomic<bool>* stop) {
    serve_loop(stop);
    conns.clear();
    listener.close();
    reg().gauge("wire.conns.open").set(0.0);
    update_subscriber_gauge();
  }

  void serve_loop(std::atomic<bool>* stop) {
    bool live = service.run_rounds(0);  // query only: any live work?
    while (true) {
      if (stop != nullptr && stop->load(std::memory_order_relaxed)) return;
      std::vector<PollItem> items;
      items.push_back({listener.fd(), false, false, false, false});
      for (const auto& c : conns) {
        items.push_back({c->sock.fd(), c->out_pos < c->outbuf.size(), false,
                         false, false});
      }
      // With quanta to run, the poll is a zero-timeout sweep between
      // rounds; idle, it parks briefly (still bounded so the stop flag
      // stays responsive).
      poll_fds(items, live ? 0 : 20);

      if (items[0].readable) {
        while (auto s = listener.accept()) {
          auto conn = std::make_unique<Conn>();
          conn->id = next_conn_id++;
          conn->sock = std::move(*s);
          conns.push_back(std::move(conn));
          ++stats.connections;
          reg().counter("wire.connections").add();
          reg().gauge("wire.conns.open")
              .set(static_cast<double>(conns.size()));
        }
      }

      // Only the conns that existed when the poll was built have an
      // items entry; just-accepted ones are served next iteration.
      const std::size_t polled = items.size() - 1;
      for (std::size_t i = 0; i < polled; ++i) {
        Conn& c = *conns[i];
        const PollItem& it = items[i + 1];
        if (it.error) {
          c.closing = true;
          c.outbuf.clear();
          c.out_pos = 0;
          continue;
        }
        if (it.readable && !c.closing) {
          std::string chunk;
          long n;
          try {
            n = c.sock.recv_some(&chunk);
          } catch (const SocketError&) {
            // ECONNRESET and friends: the peer is gone, nothing to
            // mourn — drop the connection, keep serving.
            c.closing = true;
            c.outbuf.clear();
            c.out_pos = 0;
            continue;
          }
          if (n == 0) {
            // Orderly EOF: the client is done sending; flush and drop.
            c.closing = true;
          } else if (n > 0) {
            reg().counter("wire.bytes_in").add(chunk.size());
            c.decoder.feed(chunk);
            drain_frames(c);
          }
        }
      }

      if (live) {
        live = service.run_rounds(1);
        emit_events();
      } else {
        live = service.run_rounds(0);
        if (live) continue;  // new submissions arrived: run next loop
        emit_events();  // flush terminal events for just-rejected jobs
      }

      // Flush what the kernel will take; sockets are non-blocking, so a
      // slow reader never stalls the scheduler.
      bool pending_out = false;
      for (auto& cp : conns) {
        Conn& c = *cp;
        while (c.out_pos < c.outbuf.size()) {
          const long sent = c.sock.send_some(
              std::string_view(c.outbuf).substr(c.out_pos));
          if (sent == -2) {  // peer vanished mid-stream
            c.closing = true;
            c.outbuf.clear();
            c.out_pos = 0;
            break;
          }
          if (sent <= 0) break;
          c.out_pos += static_cast<std::size_t>(sent);
        }
        if (c.out_pos == c.outbuf.size()) {
          c.outbuf.clear();
          c.out_pos = 0;
        } else {
          pending_out = true;
        }
      }
      // Reap: closing connections whose buffers flushed, and broken ones.
      const std::size_t before = conns.size();
      conns.erase(std::remove_if(conns.begin(), conns.end(),
                                 [](const std::unique_ptr<Conn>& c) {
                                   return c->closing &&
                                          c->out_pos >= c->outbuf.size();
                                 }),
                  conns.end());
      if (conns.size() != before) {
        reg().gauge("wire.conns.open").set(static_cast<double>(conns.size()));
        update_subscriber_gauge();
      }

      if (drain_requested && !live && !pending_out) return;
    }
  }
};

WireServer::WireServer(serve::GrapeService& service,
                       const std::string& listen_endpoint)
    : impl_(std::make_unique<Impl>(service, listen_endpoint)) {
  G6_REQUIRE(impl_ != nullptr);
}

WireServer::~WireServer() = default;

void WireServer::run(std::atomic<bool>* stop) { impl_->pump(stop); }

const Endpoint& WireServer::endpoint() const {
  return impl_->listener.endpoint();
}

const WireServerStats& WireServer::stats() const { return impl_->stats; }

}  // namespace g6::wire
