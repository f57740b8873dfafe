#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

namespace pera::net {

namespace {

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " +
                           std::strerror(errno));  // NOLINT(concurrency-mt-unsafe)
}

// A failed read/send: the socket is full (or empty), or the connection
// is gone.
IoStatus errno_status() {
  return (errno == EAGAIN || errno == EWOULDBLOCK) ? IoStatus::kWouldBlock
                                                   : IoStatus::kError;
}

}  // namespace

std::int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int remaining_ms(std::int64_t deadline_ns) {
  const std::int64_t left = deadline_ns - mono_ns();
  if (left <= 0) return 0;
  return static_cast<int>(left / 1'000'000) + 1;
}

const char* to_string(IoStatus s) {
  switch (s) {
    case IoStatus::kOk: return "ok";
    case IoStatus::kWouldBlock: return "would block";
    case IoStatus::kClosed: return "connection closed";
    case IoStatus::kError: return "connection error";
    case IoStatus::kTimeout: return "timeout";
  }
  return "?";
}

void Fd::reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Fd listen_loopback(std::uint16_t port, int backlog) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) throw_errno("socket");
  int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  const sockaddr_in addr = loopback_addr(port);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    throw_errno("bind");
  }
  if (::listen(fd.get(), backlog) != 0) throw_errno("listen");
  if (!set_nonblocking(fd.get())) throw_errno("fcntl O_NONBLOCK");
  return fd;
}

std::uint16_t local_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    throw_errno("getsockname");
  }
  return ntohs(addr.sin_port);
}

Fd connect_loopback(std::uint16_t port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) throw_errno("socket");
  if (!set_nonblocking(fd.get())) throw_errno("fcntl O_NONBLOCK");
  set_nodelay(fd.get());
  const sockaddr_in addr = loopback_addr(port);
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0 &&
      errno != EINPROGRESS) {
    throw_errno("connect");
  }
  return fd;
}

bool connect_finished(int fd) {
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) return false;
  return err == 0;
}

Fd connect_loopback_blocking(std::uint16_t port, int timeout_ms) {
  Fd fd;
  try {
    fd = connect_loopback(port);
  } catch (const std::exception&) {
    return {};
  }
  pollfd p{fd.get(), POLLOUT, 0};
  const int rc = ::poll(&p, 1, timeout_ms);
  if (rc <= 0 || !connect_finished(fd.get())) return {};
  return fd;
}

IoStatus read_drain(int fd,
                    const std::function<bool(crypto::BytesView)>& on_chunk) {
  std::uint8_t buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n == 0) return IoStatus::kClosed;
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno_status();
    }
    const auto got = static_cast<std::size_t>(n);
    if (!on_chunk(crypto::BytesView{buf, got})) return IoStatus::kOk;
    if (got < sizeof(buf)) return IoStatus::kWouldBlock;
  }
}

IoResult write_some(int fd, crypto::Bytes& out, std::size_t& head) {
  IoResult res;
  while (head < out.size()) {
    const ssize_t w =
        ::send(fd, out.data() + head, out.size() - head, MSG_NOSIGNAL);
    if (w >= 0) {
      head += static_cast<std::size_t>(w);
      res.bytes += static_cast<std::size_t>(w);
      continue;
    }
    if (errno == EINTR) continue;
    res.status = errno_status();
    break;
  }
  if (head == out.size()) {
    out.clear();
    head = 0;
  } else if (head >= out.size() - head) {
    out.erase(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(head));
    head = 0;
  }
  return res;
}

IoStatus flush_until(int fd, crypto::Bytes& out, std::size_t& head,
                     std::int64_t deadline_ns) {
  for (;;) {
    const IoStatus st = write_some(fd, out, head).status;
    if (st != IoStatus::kWouldBlock) return st;
    pollfd p{fd, POLLOUT, 0};
    if (::poll(&p, 1, remaining_ms(deadline_ns)) <= 0) {
      return IoStatus::kTimeout;
    }
  }
}

IoStatus pump_until(int fd, crypto::Bytes& out, std::size_t& head,
                    std::int64_t deadline_ns,
                    const std::function<bool(crypto::BytesView)>& on_chunk,
                    const std::function<bool()>& done) {
  for (;;) {
    if (write_some(fd, out, head).status == IoStatus::kError) {
      return IoStatus::kError;
    }
    const bool owed = head < out.size();
    if (!owed && done()) return IoStatus::kOk;
    const int wait = remaining_ms(deadline_ns);
    if (wait == 0) return IoStatus::kTimeout;
    // Read while waiting to write too: a peer that pauses its own reads
    // until we drain what it owes us would otherwise never take ours.
    pollfd p{fd, static_cast<short>(owed ? POLLIN | POLLOUT : POLLIN), 0};
    if (::poll(&p, 1, std::min(wait, 50)) <= 0) continue;
    const IoStatus st = read_drain(fd, on_chunk);
    if (st == IoStatus::kOk) return IoStatus::kError;  // input rejected
    if (st != IoStatus::kWouldBlock) return st;
  }
}

std::uint64_t ensure_fd_limit(std::uint64_t want) {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return 0;
  if (lim.rlim_cur >= want) return lim.rlim_cur;
  rlimit raised = lim;
  raised.rlim_cur = want < lim.rlim_max ? want : lim.rlim_max;
  if (::setrlimit(RLIMIT_NOFILE, &raised) == 0) return raised.rlim_cur;
  return lim.rlim_cur;
}

}  // namespace pera::net
