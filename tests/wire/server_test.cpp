// WireServer + RemoteClient end to end, in process: a real unix (and
// tcp) socket, the server loop on its own thread, the client on the
// test thread. These suites all start with "Wire" so CI's TSan job can
// select them with -R 'Wire' — the server is single-threaded by design,
// and the race checker holds it to that.
//
// Tests live outside src/, so the g6lint raw-socket and raw-thread
// rules do not apply here: the malformed-frame tests speak bytes
// directly on purpose.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/serve.hpp"
#include "wire/wire.hpp"

namespace g6::wire {
namespace {

serve::ServiceConfig small_service() {
  serve::ServiceConfig cfg;
  cfg.machine.boards_per_host = 2;
  cfg.machine.hosts_per_cluster = 1;
  cfg.machine.clusters = 1;
  cfg.quantum_blocksteps = 8;
  return cfg;
}

serve::JobSpec quick_job(const std::string& name, unsigned seed = 1) {
  serve::JobSpec s;
  s.name = name;
  s.n = 32;
  s.t_end = 0.03125;
  s.seed = seed;
  return s;
}

double num_at(const obs::JsonValue& j, const char* key) {
  const obs::JsonValue* v = j.find(key);
  return v != nullptr && v->is_number() ? v->as_number() : -1.0;
}

std::string str_at(const obs::JsonValue& j, const char* key) {
  const obs::JsonValue* v = j.find(key);
  return v != nullptr && v->is_string() ? v->as_string() : std::string();
}

/// Server-on-a-thread fixture. The GrapeService is touched by exactly
/// one thread at a time: the server thread while run() executes, the
/// test thread only after join() — the handoff the WireServer contract
/// requires.
class WireServerTest : public ::testing::Test {
 protected:
  void start(const serve::ServiceConfig& cfg = small_service(),
             const std::string& listen = "") {
    service_ = std::make_unique<serve::GrapeService>(cfg);
    endpoint_ = listen.empty() ? "unix:" + sock_path() : listen;
    server_ = std::make_unique<WireServer>(*service_, endpoint_);
    if (server_->endpoint().kind == Endpoint::Kind::kTcp) {
      std::ostringstream os;
      os << "tcp:127.0.0.1:" << server_->endpoint().port;
      endpoint_ = os.str();
    }
    thread_ = std::thread([this] { server_->run(&stop_); });
  }

  /// Stop the server loop (the stop flag is a no-op when a drain
  /// already let run() return) and tear the server down so the test
  /// thread owns the service again. RPCs are only serviced while run()
  /// executes, so every remote verb must happen before this.
  void join_server() {
    ASSERT_TRUE(thread_.joinable());
    stop_ = true;
    thread_.join();
    server_.reset();
  }

  /// Like join_server(), but lets a requested drain run its course:
  /// run() returns only after every in-flight job finished and every
  /// queued byte flushed — the grape6_served shutdown path.
  void join_drained() {
    ASSERT_TRUE(thread_.joinable());
    thread_.join();
    server_.reset();
  }

  void TearDown() override {
    if (thread_.joinable()) {
      stop_ = true;  // a failed test must not hang the suite
      thread_.join();
    }
  }

  std::string sock_path() const {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    return ::testing::TempDir() + "g6wire_" + info->name() + ".sock";
  }

  std::unique_ptr<serve::GrapeService> service_;
  std::unique_ptr<WireServer> server_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::string endpoint_;
};

TEST_F(WireServerTest, PingRoundTripsOverUnixSocket) {
  start();
  RemoteClient client(endpoint_);
  EXPECT_NO_THROW(client.ping());
  join_server();
  EXPECT_EQ(service_->stats().submitted, 0u);
}

TEST_F(WireServerTest, SubmitStreamsProgressAndExactlyOneTerminal) {
  start();
  RemoteClient client(endpoint_);
  client.subscribe();  // before submit: every quantum must be visible

  const serve::SubmitResult a = client.submit(quick_job("wire-a", 1));
  const serve::SubmitResult b = client.submit(quick_job("wire-b", 2));
  ASSERT_TRUE(a);
  ASSERT_TRUE(b);

  int progress_a = 0, progress_b = 0, terminal_a = 0, terminal_b = 0;
  while (terminal_a + terminal_b < 2) {
    std::optional<WireEvent> ev = client.next_event(true);
    ASSERT_TRUE(ev.has_value()) << "EOF before both terminals";
    const auto job = static_cast<serve::JobId>(num_at(ev->root, "job"));
    if (ev->event == "progress") {
      (job == a.id ? progress_a : progress_b)++;
    } else if (ev->event == "terminal") {
      (job == a.id ? terminal_a : terminal_b)++;
      const obs::JsonValue* rep = ev->root.find("report");
      ASSERT_NE(rep, nullptr);
      EXPECT_EQ(str_at(*rep, "state"), "completed");
      EXPECT_GT(num_at(*rep, "quanta"), 0.0);
      EXPECT_GT(num_at(*rep, "steps"), 0.0);
    }
  }
  // No buffered duplicate terminal behind the ones we counted.
  while (std::optional<WireEvent> ev = client.next_event(false)) {
    EXPECT_NE(ev->event, "terminal");
  }
  EXPECT_EQ(terminal_a, 1);
  EXPECT_EQ(terminal_b, 1);
  EXPECT_GE(progress_a, 1);
  EXPECT_GE(progress_b, 1);

  // Polling verbs agree with the stream.
  EXPECT_EQ(client.state_name(a.id), "completed");
  EXPECT_EQ(str_at(client.report_json(b.id), "name"), "wire-b");

  join_server();
  EXPECT_EQ(service_->stats().completed, 2u);
}

TEST_F(WireServerTest, JobFinishedInItsFirstQuantumStreamsOneProgress) {
  // bat-c of the wire_identity manifest: on an idle 4-board machine it is
  // leased and finishes in the same round, so no round ever sees it
  // running. It still owes one progress event, before its terminal.
  serve::ServiceConfig cfg = small_service();
  cfg.machine.boards_per_host = 4;
  cfg.quantum_blocksteps = 4;
  start(cfg);
  RemoteClient client(endpoint_);
  client.subscribe();
  serve::JobSpec spec;
  spec.name = "bat-c";
  spec.model = "disk";
  spec.n = 48;
  spec.t_end = 0.0625;
  spec.seed = 28;
  spec.boards = 2;
  ASSERT_TRUE(client.submit(spec));

  int progress = 0;
  while (true) {
    std::optional<WireEvent> ev = client.next_event(true);
    ASSERT_TRUE(ev.has_value()) << "EOF before the terminal";
    if (ev->event == "progress") ++progress;
    if (ev->event == "terminal") {
      const obs::JsonValue* rep = ev->root.find("report");
      ASSERT_NE(rep, nullptr);
      EXPECT_EQ(str_at(*rep, "state"), "completed");
      EXPECT_EQ(num_at(*rep, "quanta"), 1.0);
      break;
    }
  }
  EXPECT_EQ(progress, 1);
  join_server();
}

TEST_F(WireServerTest, ReportResponseMatchesTheReportFileJobObject) {
  start();
  RemoteClient client(endpoint_);
  client.subscribe();
  const serve::SubmitResult r = client.submit(quick_job("parity", 5));
  ASSERT_TRUE(r);
  while (true) {
    std::optional<WireEvent> ev = client.next_event(true);
    ASSERT_TRUE(ev.has_value()) << "EOF before the terminal";
    if (ev->event == "terminal") break;
  }
  const obs::JsonValue remote = client.report_json(r.id);
  join_server();

  const std::string path =
      ::testing::TempDir() + "g6wire_parity_report.json";
  serve::write_service_report(path, *service_, {{r.id, "parity.snap"}});
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const obs::JsonValue file = obs::JsonValue::parse(text.str());
  std::remove(path.c_str());
  ASSERT_EQ(file.at("jobs").items().size(), 1u);
  const obs::JsonValue& local = file.at("jobs").items()[0];

  // Every key of the response is in the file's job object with the same
  // value; the file adds exactly its snapshot path and Eq 10 split.
  EXPECT_EQ(remote.members().size(), 25u);
  EXPECT_EQ(local.members().size(), remote.members().size() + 2);
  for (const auto& [key, value] : remote.members()) {
    const obs::JsonValue* mine = local.find(key);
    ASSERT_NE(mine, nullptr) << key;
    ASSERT_EQ(mine->type(), value.type()) << key;
    if (value.is_number()) {
      EXPECT_EQ(mine->as_number(), value.as_number()) << key;
    } else {
      EXPECT_EQ(mine->as_string(), value.as_string()) << key;
    }
  }
  EXPECT_EQ(str_at(local, "snapshot"), "parity.snap");
  EXPECT_TRUE(local.at("eq10").is_object());
}

TEST_F(WireServerTest, SnapshotEventMatchesFinalStateEverywhere) {
  start();
  RemoteClient client(endpoint_);
  client.subscribe(/*snapshots=*/true);
  const serve::SubmitResult r = client.submit(quick_job("snap", 7));
  ASSERT_TRUE(r);

  std::optional<obs::JsonValue> snap_json;
  std::string snap_name;
  bool saw_terminal = false;
  while (!saw_terminal || !snap_json) {
    std::optional<WireEvent> ev = client.next_event(true);
    ASSERT_TRUE(ev.has_value()) << "EOF before terminal+snapshot";
    if (ev->event == "terminal") saw_terminal = true;
    if (ev->event == "snapshot") {
      const obs::JsonValue* s = ev->root.find("snapshot");
      ASSERT_NE(s, nullptr);
      snap_json = *s;
      snap_name = str_at(ev->root, "name");
    }
  }
  EXPECT_EQ(snap_name, "snap");

  double t_event = -1.0;
  const ParticleSet from_event = decode_snapshot(*snap_json, &t_event);
  double t_rpc = -2.0;
  const ParticleSet from_rpc = client.final_state(r.id, &t_rpc);

  join_server();
  double t_local = -3.0;
  const ParticleSet local = service_->client().final_state(r.id, &t_local);

  // Streamed snapshot == polled final_state == in-process final state,
  // bit for bit: the transport half of the identity contract.
  EXPECT_EQ(t_event, t_local);
  EXPECT_EQ(t_rpc, t_local);
  ASSERT_EQ(from_event.size(), local.size());
  ASSERT_EQ(from_rpc.size(), local.size());
  for (std::size_t i = 0; i < local.size(); ++i) {
    EXPECT_EQ(from_event.bodies()[i].mass, local.bodies()[i].mass);
    EXPECT_EQ(from_event.bodies()[i].pos.x, local.bodies()[i].pos.x);
    EXPECT_EQ(from_event.bodies()[i].pos.y, local.bodies()[i].pos.y);
    EXPECT_EQ(from_event.bodies()[i].pos.z, local.bodies()[i].pos.z);
    EXPECT_EQ(from_event.bodies()[i].vel.x, local.bodies()[i].vel.x);
    EXPECT_EQ(from_event.bodies()[i].vel.y, local.bodies()[i].vel.y);
    EXPECT_EQ(from_event.bodies()[i].vel.z, local.bodies()[i].vel.z);
    EXPECT_EQ(from_rpc.bodies()[i].pos.x, local.bodies()[i].pos.x);
    EXPECT_EQ(from_rpc.bodies()[i].vel.x, local.bodies()[i].vel.x);
  }
}

TEST_F(WireServerTest, RejectionReasonsTravelVerbatim) {
  start();
  RemoteClient client(endpoint_);

  serve::JobSpec greedy = quick_job("greedy");
  greedy.boards = 99;  // two-board machine
  const serve::SubmitResult r1 = client.submit(greedy);
  EXPECT_FALSE(r1);
  EXPECT_EQ(r1.reason, serve::RejectReason::kBoardsUnavailable);
  EXPECT_EQ(client.last_reject_reason(), "boards-unavailable");
  EXPECT_FALSE(r1.message.empty());

  serve::JobSpec bad = quick_job("bad");
  bad.model = "spiral";
  const serve::SubmitResult r2 = client.submit(bad);
  EXPECT_FALSE(r2);
  EXPECT_EQ(r2.reason, serve::RejectReason::kInvalidSpec);
  EXPECT_EQ(client.last_reject_reason(), "invalid-spec");

  // Keep one job in flight so the drained server loop stays alive to
  // answer the post-drain submit below. A job that ends soon would race
  // that submit: if it finished first, run() would return and the submit
  // would wait forever for an answer.
  serve::JobSpec alive = quick_job("keep-alive", 9);
  alive.t_end = 1e6;
  ASSERT_TRUE(client.submit(alive));
  client.drain();
  EXPECT_EQ(client.submit(quick_job("late")).reason,
            serve::RejectReason::kDraining);
  EXPECT_EQ(client.last_reject_reason(), "draining");

  join_server();  // keep-alive never finishes; drain-to-exit is covered below
  EXPECT_EQ(service_->stats().rejected, 3u);
  EXPECT_EQ(service_->stats().completed, 0u);
}

TEST_F(WireServerTest, StatsRpcReportsServiceCounters) {
  start();
  RemoteClient client(endpoint_);
  ASSERT_TRUE(client.submit(quick_job("counted")));
  // stats is a poll, so spin until the job finished server-side.
  while (num_at(client.stats_json(), "completed") < 1.0) {
  }
  const obs::JsonValue st = client.stats_json();
  EXPECT_EQ(num_at(st, "submitted"), 1.0);
  EXPECT_EQ(num_at(st, "completed"), 1.0);
  join_server();
}

TEST_F(WireServerTest, WorksOverTcpWithEphemeralPort) {
  start(small_service(), "tcp:127.0.0.1:0");
  ASSERT_NE(server_->endpoint().port, 0);  // kernel filled the port in
  RemoteClient client(endpoint_);
  client.subscribe();
  const serve::SubmitResult r = client.submit(quick_job("tcp-job", 3));
  ASSERT_TRUE(r);
  int terminals = 0;
  while (terminals < 1) {
    std::optional<WireEvent> ev = client.next_event(true);
    ASSERT_TRUE(ev.has_value());
    if (ev->event == "terminal") ++terminals;
  }
  join_server();
  EXPECT_EQ(service_->stats().completed, 1u);
}

// ----------------------------------------------------- hostile clients
//
// These speak raw bytes to exercise the failure envelope: a bad
// PAYLOAD answers ok:false and the connection lives; a bad FRAME (not
// an envelope at all) poisons only that connection — one error event,
// then close — while a well-behaved neighbour keeps working.

std::string read_frame_blocking(Socket& s, FrameDecoder& dec) {
  std::string payload;
  while (true) {
    const FrameDecoder::Status st = dec.next(&payload);
    if (st == FrameDecoder::Status::kFrame) return payload;
    if (st == FrameDecoder::Status::kError) return "";
    std::string buf;
    if (s.recv_some(&buf) == 0) return "";  // EOF
    dec.feed(buf);
  }
}

std::string request_json(std::uint64_t id, const std::string& method) {
  std::ostringstream os;
  os << "{\"schema\":\"" << kWireSchema << "\",\"kind\":\"request\",\"id\":"
     << id << ",\"method\":\"" << method << "\"}";
  return os.str();
}

TEST_F(WireServerTest, UnknownMethodAnswersOkFalseAndConnectionLives) {
  start();
  Socket raw = connect_to(parse_endpoint(endpoint_));
  FrameDecoder dec;

  raw.send_all(encode_frame(request_json(1, "frobnicate")));
  Envelope resp = parse_envelope(read_frame_blocking(raw, dec));
  EXPECT_EQ(resp.kind, "response");
  EXPECT_EQ(resp.id, 1u);
  const obs::JsonValue* ok = resp.root.find("ok");
  ASSERT_NE(ok, nullptr);
  EXPECT_FALSE(ok->as_bool());
  EXPECT_NE(str_at(resp.root, "error").find("unknown method"),
            std::string::npos);

  // Same socket, next request: still serviced.
  raw.send_all(encode_frame(request_json(2, "ping")));
  resp = parse_envelope(read_frame_blocking(raw, dec));
  EXPECT_EQ(resp.id, 2u);
  ASSERT_NE(resp.root.find("ok"), nullptr);
  EXPECT_TRUE(resp.root.find("ok")->as_bool());

  raw.send_all(encode_frame(request_json(3, "drain")));
  EXPECT_FALSE(read_frame_blocking(raw, dec).empty());
  join_drained();
}

TEST_F(WireServerTest, BadRequestKeyAnswersOkFalseAndConnectionLives) {
  // A sound envelope whose body key has the wrong type or range costs
  // only that request: ok:false naming the key, then the same socket
  // (and the daemon behind it) keeps serving.
  struct Case {
    const char* body;  ///< request keys after "method"
    const char* key;   ///< named in the error
  };
  const Case cases[] = {
      {R"("method":"subscribe","snapshots":1)", "snapshots"},
      {R"("method":"subscribe","all":"yes")", "all"},
      {R"("method":"subscribe","snapshots":null)", "snapshots"},
      {R"("method":"report","job":-1)", "job"},
      {R"("method":"report","job":1.5)", "job"},
      {R"("method":"state","job":1e30)", "job"},
      {R"("method":"final","job":"1")", "job"},
      {R"("method":"report")", "job"},
      {R"("method":"submit")", "spec"},
      {R"("method":"submit","spec":{"name":"x","seed":-1})", "seed"},
      {R"("method":"submit","spec":{"name":"x","boards":true})", "boards"},
  };
  start();
  Socket raw = connect_to(parse_endpoint(endpoint_));
  FrameDecoder dec;
  std::uint64_t id = 0;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.body);
    std::ostringstream os;
    os << "{\"schema\":\"" << kWireSchema << "\",\"kind\":\"request\",\"id\":"
       << ++id << "," << c.body << "}";
    raw.send_all(encode_frame(os.str()));
    const std::string payload = read_frame_blocking(raw, dec);
    ASSERT_FALSE(payload.empty()) << "server hung up";
    const Envelope resp = parse_envelope(payload);
    EXPECT_EQ(resp.kind, "response");
    EXPECT_EQ(resp.id, id);
    ASSERT_NE(resp.root.find("ok"), nullptr);
    EXPECT_FALSE(resp.root.find("ok")->as_bool());
    const std::string error = str_at(resp.root, "error");
    EXPECT_NE(error.find(std::string("'") + c.key + "'"), std::string::npos)
        << error;

    raw.send_all(encode_frame(request_json(++id, "ping")));
    const Envelope pong = parse_envelope(read_frame_blocking(raw, dec));
    EXPECT_EQ(pong.id, id);
    ASSERT_NE(pong.root.find("ok"), nullptr);
    EXPECT_TRUE(pong.root.find("ok")->as_bool());
  }

  raw.send_all(encode_frame(request_json(++id, "drain")));
  EXPECT_FALSE(read_frame_blocking(raw, dec).empty());
  join_drained();
  EXPECT_EQ(service_->stats().submitted, 0u);
}

TEST(WireClientTest, OutOfRangeResponseValueIsAWireError) {
  // A fake server answers every submit with a job id no JobId holds (or
  // one that is not a number): the client must refuse it as WireError
  // rather than cast it.
  const std::string endpoint =
      "unix:" + ::testing::TempDir() + "g6wire_fake_server.sock";
  ListenSocket listener(parse_endpoint(endpoint));
  RemoteClient client(endpoint);
  std::optional<Socket> conn;
  for (int tries = 0; !conn && tries < 100; ++tries) {
    std::vector<PollItem> items{{listener.fd(), false, false, false, false}};
    poll_fds(items, 100);
    conn = listener.accept();
  }
  ASSERT_TRUE(conn.has_value());
  conn->set_nonblocking(false);

  const std::vector<std::string> bad_jobs = {"-1", "1.5", "1e30", "\"1\""};
  std::thread fake([&conn, &bad_jobs] {
    FrameDecoder dec;
    for (const std::string& job : bad_jobs) {
      const std::string request = read_frame_blocking(*conn, dec);
      if (request.empty()) return;
      std::ostringstream os;
      os << "{\"schema\":\"" << kWireSchema
         << "\",\"kind\":\"response\",\"id\":" << parse_envelope(request).id
         << ",\"ok\":true,\"job\":" << job
         << ",\"accepted\":true,\"reason\":\"none\",\"message\":\"\"}";
      conn->send_all(encode_frame(os.str()));
    }
  });
  for (const std::string& job : bad_jobs) {
    SCOPED_TRACE(job);
    try {
      client.submit(quick_job("fake"));
      ADD_FAILURE() << "accepted job id " << job;
    } catch (const WireError& e) {
      EXPECT_NE(std::string(e.what()).find("'job'"), std::string::npos)
          << e.what();
    }
  }
  fake.join();
}

TEST_F(WireServerTest, MalformedFramePoisonsOnlyItsConnection) {
  start();
  RemoteClient good(endpoint_);
  Socket bad = connect_to(parse_endpoint(endpoint_));
  FrameDecoder dec;

  bad.send_all(encode_frame("this is not json"));
  const std::string payload = read_frame_blocking(bad, dec);
  ASSERT_FALSE(payload.empty());
  const Envelope err = parse_envelope(payload);
  EXPECT_EQ(err.kind, "event");
  EXPECT_EQ(err.event, "error");
  EXPECT_FALSE(str_at(err.root, "message").empty());
  // ...and then the server hangs up on the offender.
  EXPECT_TRUE(read_frame_blocking(bad, dec).empty());

  // The neighbour never notices.
  EXPECT_NO_THROW(good.ping());
  ASSERT_TRUE(good.submit(quick_job("survivor", 5)));
  good.drain();
  join_drained();
  EXPECT_EQ(service_->stats().completed, 1u);
}

TEST_F(WireServerTest, RequestAfterDrainedRunFailsInsteadOfHanging) {
  start();
  RemoteClient client(endpoint_);
  client.drain();  // nothing in flight: run() returns once this is answered
  thread_.join();  // run() is done, the server object still lives

  // The request runs on a helper thread with a deadline, so a server
  // that keeps the connection open fails this test instead of hanging it.
  std::promise<std::string> outcome;
  std::future<std::string> done = outcome.get_future();
  std::thread requester([&client, &outcome] {
    try {
      client.submit(quick_job("late"));
      outcome.set_value("answered");
    } catch (const WireError& e) {
      outcome.set_value(e.what());
    } catch (const std::exception& e) {
      outcome.set_value(std::string("not a WireError: ") + e.what());
    }
  });
  const bool finished =
      done.wait_for(std::chrono::seconds(20)) == std::future_status::ready;
  server_.reset();  // closes whatever the server left open: unblocks a hang
  requester.join();
  ASSERT_TRUE(finished) << "request after run() returned blocked";
  EXPECT_EQ(done.get().rfind("server closed before responding to 'submit'", 0),
            0u);
}

}  // namespace
}  // namespace g6::wire
