#pragma once
// Socket transport: the ONLY place in the tree that touches raw socket
// primitives (g6lint `raw-socket` confines <sys/socket.h>, ::socket,
// ::send, ::recv, ::poll, ... to src/wire/). Everything above sees RAII
// wrappers and byte buffers.
//
// Endpoints are strings:
//
//   unix:/path/to.sock   unix-domain stream socket (CI, tests, loadgen)
//   tcp:host:port        TCP, IPv4 numeric host or "localhost"
//
// Servers listen non-blocking and multiplex with poll_fds(); clients
// connect blocking (a request/response client has nothing better to do
// than wait). All errors are SocketError with errno text — no silent
// partial sends, no EINTR leaks.

#include <cstddef>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace g6::wire {

class SocketError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A parsed endpoint string.
struct Endpoint {
  enum class Kind { kUnix, kTcp };
  Kind kind = Kind::kUnix;
  std::string path;  ///< unix: socket path
  std::string host;  ///< tcp: numeric IPv4 or "localhost"
  int port = 0;      ///< tcp
};

/// Parse "unix:/path" or "tcp:host:port"; throws SocketError on anything
/// else (unknown scheme, missing path, non-numeric port).
Endpoint parse_endpoint(const std::string& endpoint);

/// One connected stream socket (RAII, move-only).
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void close();

  /// Blocking: send the whole buffer (loops over partial sends/EINTR).
  void send_all(std::string_view data);

  /// One non-blocking send attempt. Returns bytes accepted by the
  /// kernel; -1 means "try again later" (EAGAIN/EINTR); -2 means the
  /// peer is gone (EPIPE/ECONNRESET — drop the connection, don't
  /// throw: a vanished client is routine for a server). Other errors
  /// throw SocketError.
  long send_some(std::string_view data);

  /// Read up to `max` bytes into `out` (appended). Returns bytes read;
  /// 0 means orderly EOF. On a non-blocking socket, -1 means "no data
  /// right now" (EAGAIN); real errors throw.
  long recv_some(std::string* out, std::size_t max = 64 * 1024);

  void set_nonblocking(bool on);

 private:
  int fd_ = -1;
};

/// A listening socket bound to an endpoint (non-blocking accepts).
class ListenSocket {
 public:
  /// Bind + listen. For unix endpoints a stale socket file is unlinked
  /// first. Throws SocketError on failure.
  explicit ListenSocket(const Endpoint& ep, int backlog = 64);
  ~ListenSocket();
  ListenSocket(const ListenSocket&) = delete;
  ListenSocket& operator=(const ListenSocket&) = delete;

  /// Accept one pending connection (already non-blocking); nullopt when
  /// none is waiting.
  std::optional<Socket> accept();

  int fd() const { return fd_; }
  /// Stop listening (idempotent): later connects are refused.
  void close();
  /// The bound endpoint; for tcp:host:0 the kernel-assigned port is
  /// filled in, so tests can listen on an ephemeral port.
  const Endpoint& endpoint() const { return ep_; }

 private:
  int fd_ = -1;
  Endpoint ep_;
};

/// Blocking client connect; throws SocketError (connection refused,
/// missing socket file, ...).
Socket connect_to(const Endpoint& ep);

/// One fd's poll request/result for poll_fds().
struct PollItem {
  int fd = -1;
  bool want_write = false;  ///< also wait for writability (pending outbuf)
  bool readable = false;    ///< out: data (or a pending accept) available
  bool writable = false;    ///< out: send would make progress
  bool error = false;       ///< out: HUP/ERR — treat as disconnect
};

/// Poll all items at once; timeout in milliseconds (0 = non-blocking
/// check, <0 = wait indefinitely). EINTR retries internally.
void poll_fds(std::vector<PollItem>& items, int timeout_ms);

}  // namespace g6::wire
