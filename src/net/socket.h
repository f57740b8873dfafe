// Thin POSIX socket layer under every transport driver: RAII fd
// ownership, nonblocking loopback listen/connect, the transport's clock,
// and its one I/O path — write_some() (the only place session bytes reach
// a socket; a vanished peer is an error, never SIGPIPE), the blocking
// flush_until()/pump_until() built on it, and read_drain(). No protocol
// knowledge lives here.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "crypto/bytes.h"

namespace pera::net {

/// Owning file descriptor. Move-only; closes on destruction.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }

  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  Fd(Fd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int release() { return std::exchange(fd_, -1); }
  void reset();

 private:
  int fd_ = -1;
};

/// Make a TCP listen socket on 127.0.0.1:`port` (0 = ephemeral),
/// nonblocking, SO_REUSEADDR, backlog deep enough for connection storms.
/// Throws std::runtime_error on failure.
[[nodiscard]] Fd listen_loopback(std::uint16_t port, int backlog = 4096);

/// Port a listen socket is bound to.
[[nodiscard]] std::uint16_t local_port(int fd);

/// Begin a nonblocking connect to 127.0.0.1:`port`. The socket is
/// created nonblocking with TCP_NODELAY; the connect may still be in
/// progress when this returns (poll for writability, then check
/// SO_ERROR via connect_finished). Throws std::runtime_error on
/// immediate failure.
[[nodiscard]] Fd connect_loopback(std::uint16_t port);

/// After a nonblocking connect became writable: true when the connect
/// succeeded, false when it failed.
[[nodiscard]] bool connect_finished(int fd);

/// Blocking connect with a timeout (milliseconds). Returns an invalid Fd
/// on failure or timeout.
[[nodiscard]] Fd connect_loopback_blocking(std::uint16_t port, int timeout_ms);

/// Set O_NONBLOCK (true on success).
bool set_nonblocking(int fd);

/// Disable Nagle (best effort).
void set_nodelay(int fd);

/// Monotonic nanoseconds (steady clock): deadlines, timers, latencies.
[[nodiscard]] std::int64_t mono_ns();

/// Milliseconds left until `deadline_ns` (rounded up; 0 once passed) —
/// the timeout to hand poll()/epoll_wait().
[[nodiscard]] int remaining_ms(std::int64_t deadline_ns);

enum class IoStatus : std::uint8_t {
  kOk,          // made progress / done
  kWouldBlock,  // the socket cannot take or give more right now
  kClosed,      // orderly EOF (reads only)
  kError,
  kTimeout,     // deadline passed (blocking helpers only)
};

[[nodiscard]] const char* to_string(IoStatus s);

struct IoResult {
  IoStatus status = IoStatus::kOk;
  std::size_t bytes = 0;
};

/// Read until the socket is drained, handing each chunk (at most 64 KiB,
/// valid only during the call) to `on_chunk`. A short read ends the
/// drain: the socket was emptied. Returns kWouldBlock once drained, kOk
/// when `on_chunk` returned false (the consumer stopped the drain),
/// kClosed or kError when the socket did.
[[nodiscard]] IoStatus read_drain(
    int fd, const std::function<bool(crypto::BytesView)>& on_chunk);

/// Nonblocking: write as much of `out[head..]` as the socket accepts,
/// advancing `head`. The written prefix is erased once `out` drains, or
/// once it is at least half of `out`, so a slow reader costs amortised
/// O(1) per byte. Returns kOk when everything is written, kWouldBlock
/// when bytes remain, kError when the connection is gone (EPIPE and
/// ECONNRESET included — no SIGPIPE is raised). `bytes` is what was
/// written by this call.
[[nodiscard]] IoResult write_some(int fd, crypto::Bytes& out,
                                  std::size_t& head);

/// Blocking: write_some() and poll for writability until `out` drains.
/// kOk, kError or kTimeout.
[[nodiscard]] IoStatus flush_until(int fd, crypto::Bytes& out,
                                   std::size_t& head, std::int64_t deadline_ns);

/// Blocking request/response loop: write `out` and read_drain() input
/// into `on_chunk` (which may queue more bytes on `out`) until `out` is
/// written and `done()` holds. Waits are sliced so `done()` is re-checked
/// at least every 50 ms (it may watch a stop flag). kOk when done, kError
/// when `on_chunk` rejects input or the socket fails, kClosed on EOF,
/// kTimeout at the deadline.
[[nodiscard]] IoStatus pump_until(
    int fd, crypto::Bytes& out, std::size_t& head, std::int64_t deadline_ns,
    const std::function<bool(crypto::BytesView)>& on_chunk,
    const std::function<bool()>& done);

/// Best-effort bump of RLIMIT_NOFILE to at least `want` descriptors
/// (capped at the hard limit). Returns the resulting soft limit.
std::uint64_t ensure_fd_limit(std::uint64_t want);

}  // namespace pera::net
