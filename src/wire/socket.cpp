#include "wire/socket.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <utility>

#include "util/check.hpp"

namespace g6::wire {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw SocketError(what + ": " + std::strerror(errno));
}

[[noreturn]] void fail_plain(const std::string& what) {
  throw SocketError(what);
}

/// Resolve the endpoint into a bound-or-connected address. Only numeric
/// IPv4 and "localhost" are supported: the serving layer is a lab/CI
/// tool, and skipping getaddrinfo keeps connect() free of DNS stalls.
sockaddr_in tcp_addr(const Endpoint& ep) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(ep.port));
  const std::string host = ep.host == "localhost" ? "127.0.0.1" : ep.host;
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    fail_plain("tcp endpoint host '" + ep.host +
               "' is not a numeric IPv4 address or localhost");
  }
  return addr;
}

sockaddr_un unix_addr(const Endpoint& ep) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (ep.path.size() >= sizeof(addr.sun_path)) {
    fail_plain("unix socket path too long: " + ep.path);
  }
  std::memcpy(addr.sun_path, ep.path.c_str(), ep.path.size() + 1);
  return addr;
}

int new_socket(const Endpoint& ep) {
  const int domain = ep.kind == Endpoint::Kind::kUnix ? AF_UNIX : AF_INET;
  const int fd = ::socket(domain, SOCK_STREAM, 0);
  if (fd < 0) fail("socket()");
  return fd;
}

}  // namespace

Endpoint parse_endpoint(const std::string& endpoint) {
  Endpoint ep;
  if (endpoint.rfind("unix:", 0) == 0) {
    ep.kind = Endpoint::Kind::kUnix;
    ep.path = endpoint.substr(5);
    if (ep.path.empty()) fail_plain("unix endpoint needs a path: " + endpoint);
    return ep;
  }
  if (endpoint.rfind("tcp:", 0) == 0) {
    ep.kind = Endpoint::Kind::kTcp;
    const std::string rest = endpoint.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == rest.size()) {
      fail_plain("tcp endpoint needs host:port: " + endpoint);
    }
    ep.host = rest.substr(0, colon);
    const std::string port = rest.substr(colon + 1);
    char* end = nullptr;
    const long p = std::strtol(port.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || p < 0 || p > 65535) {
      fail_plain("tcp endpoint port out of range: " + endpoint);
    }
    ep.port = static_cast<int>(p);
    return ep;
  }
  fail_plain("endpoint must be unix:<path> or tcp:<host>:<port>, got: " +
             endpoint);
}

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::send_all(std::string_view data) {
  G6_REQUIRE(valid());
  std::size_t sent = 0;
  while (sent < data.size()) {
    const auto n = ::send(fd_, data.data() + sent, data.size() - sent,
                          MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("send()");
    }
    sent += static_cast<std::size_t>(n);
  }
}

long Socket::send_some(std::string_view data) {
  G6_REQUIRE(valid());
  if (data.empty()) return 0;
  const auto n = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return -1;
    if (errno == EPIPE || errno == ECONNRESET) return -2;
    fail("send()");
  }
  return static_cast<long>(n);
}

long Socket::recv_some(std::string* out, std::size_t max) {
  G6_REQUIRE(valid() && out != nullptr && max > 0);
  const std::size_t old = out->size();
  out->resize(old + max);
  const auto n = ::recv(fd_, out->data() + old, max, 0);
  if (n < 0) {
    out->resize(old);
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
    if (errno == EINTR) return -1;  // caller polls again
    fail("recv()");
  }
  out->resize(old + static_cast<std::size_t>(n));
  return static_cast<long>(n);
}

void Socket::set_nonblocking(bool on) {
  G6_REQUIRE(valid());
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0) fail("fcntl(F_GETFL)");
  const int next = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd_, F_SETFL, next) < 0) fail("fcntl(F_SETFL)");
}

ListenSocket::ListenSocket(const Endpoint& ep, int backlog) : ep_(ep) {
  fd_ = new_socket(ep);
  if (ep.kind == Endpoint::Kind::kUnix) {
    // A previous server's socket file would make bind() fail with
    // EADDRINUSE even though nobody is listening; stale files are the
    // normal crash residue, so remove and rebind.
    ::unlink(ep.path.c_str());
    sockaddr_un addr = unix_addr(ep);
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      fail("bind(" + ep.path + ")");
    }
  } else {
    const int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr = tcp_addr(ep);
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      fail("bind(" + ep.host + ":" + std::to_string(ep.port) + ")");
    }
    if (ep.port == 0) {
      // Ephemeral port: read back what the kernel assigned so the
      // endpoint() a test publishes is connectable.
      sockaddr_in bound{};
      socklen_t len = sizeof(bound);
      if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
        fail("getsockname()");
      }
      ep_.port = ntohs(bound.sin_port);
    }
  }
  if (::listen(fd_, backlog) < 0) fail("listen()");
  // Non-blocking accepts: the server loop polls, it never parks in
  // accept() while quanta are waiting to run.
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK) < 0) {
    fail("fcntl(listener O_NONBLOCK)");
  }
}

ListenSocket::~ListenSocket() {
  close();
  if (ep_.kind == Endpoint::Kind::kUnix) ::unlink(ep_.path.c_str());
}

void ListenSocket::close() {
  if (fd_ >= 0) ::close(std::exchange(fd_, -1));
}

std::optional<Socket> ListenSocket::accept() {
  G6_REQUIRE(fd_ >= 0);
  const int conn = ::accept(fd_, nullptr, nullptr);
  if (conn < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      return std::nullopt;
    }
    fail("accept()");
  }
  Socket s(conn);
  s.set_nonblocking(true);
  return s;
}

Socket connect_to(const Endpoint& ep) {
  const int fd = new_socket(ep);
  int rc;
  if (ep.kind == Endpoint::Kind::kUnix) {
    sockaddr_un addr = unix_addr(ep);
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } else {
    sockaddr_in addr = tcp_addr(ep);
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  }
  if (rc < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail("connect(" + (ep.kind == Endpoint::Kind::kUnix
                           ? ep.path
                           : ep.host + ":" + std::to_string(ep.port)) +
         ")");
  }
  return Socket(fd);
}

void poll_fds(std::vector<PollItem>& items, int timeout_ms) {
  std::vector<pollfd> fds;
  fds.reserve(items.size());
  for (const PollItem& it : items) {
    pollfd p{};
    p.fd = it.fd;
    p.events = POLLIN;
    if (it.want_write) p.events |= POLLOUT;
    fds.push_back(p);
  }
  int rc;
  do {
    rc = ::poll(fds.data(), fds.size(), timeout_ms);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) fail("poll()");
  for (std::size_t i = 0; i < items.size(); ++i) {
    items[i].readable = (fds[i].revents & POLLIN) != 0;
    items[i].writable = (fds[i].revents & POLLOUT) != 0;
    items[i].error = (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) != 0;
  }
}

}  // namespace g6::wire
