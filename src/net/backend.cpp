#include "net/backend.h"

#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <tuple>
#include <utility>

#include "obs/obs.h"

namespace pera::net {

namespace {

constexpr int kConnectTimeoutMs = 2000;

}  // namespace

SocketBackend::SocketBackend(Config config)
    : config_(std::move(config)), nonces_(config_.nonce_seed) {}

SocketBackend::~SocketBackend() { stop(); }

void SocketBackend::set_result_sink(
    std::function<void(const ra::Certificate&)> sink) {
  sink_ = std::move(sink);
}

bool SocketBackend::connect() {
  const std::int64_t deadline =
      mono_ns() + std::int64_t{kConnectTimeoutMs} * 1'000'000;
  fd_ = connect_loopback_blocking(config_.port, kConnectTimeoutMs);
  if (!fd_.valid()) {
    error_ = "connect failed";
    return false;
  }
  wake_fd_ = Fd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
  if (!wake_fd_.valid()) {
    error_ = "eventfd failed";
    return false;
  }

  ClientSessionConfig sc;
  sc.place = config_.place;
  sc.role = SessionRole::kRelyingParty;
  sc.want_mutual = config_.mutual;
  if (config_.mutual) {
    sc.verify_counter_quote = [this](const Quote& q) {
      const crypto::HmacVerifier v(config_.cert_key);
      return q.verify(v) && q.measurement == config_.appraiser_golden;
    };
  }
  session_ = std::make_unique<ClientSession>(std::move(sc), nonces_.issue());
  session_->start();
  const IoStatus st = pump_until(
      fd_.get(), session_->outbox(), out_head_, deadline,
      [this](crypto::BytesView chunk) { return session_->on_bytes(chunk); },
      [this] { return session_->established() || session_->failed(); });
  if (st != IoStatus::kOk || !session_->established()) {
    error_ = session_->error_text().empty() ? to_string(st)
                                            : session_->error_text();
    return false;
  }
  established_.store(true, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  loop_ = std::thread([this] { run_loop(); });
  PERA_OBS_COUNT("net.backend.connected");
  return true;
}

void SocketBackend::post(std::function<void()> fn) {
  {
    const std::lock_guard<std::mutex> lock(post_mu_);
    posted_.push_back(std::move(fn));
  }
  wake();
}

void SocketBackend::wake() {
  if (!wake_fd_.valid()) return;
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(wake_fd_.get(), &one, sizeof(one));
}

void SocketBackend::stop() {
  if (running_.exchange(false)) {
    wake();
    if (loop_.joinable()) loop_.join();
  } else if (loop_.joinable()) {
    loop_.join();
  }
  if (session_ && fd_.valid() && session_->established() && !conn_dead_) {
    session_->send_bye();
    (void)flush_until(fd_.get(), session_->outbox(), out_head_,
                      mono_ns() + 100'000'000);
  }
  established_.store(false, std::memory_order_release);
  fd_.reset();
}

void SocketBackend::send_challenge(const std::string& place,
                                   const core::Challenge& ch) {
  if (conn_dead_ || !session_ || !session_->established()) return;
  session_->send_challenge(place, ch);
  try_flush();
  PERA_OBS_COUNT("net.backend.challenges_sent");
}

void SocketBackend::schedule_in(netsim::SimTime delay,
                                std::function<void()> fn) {
  Timer t;
  t.at = mono_ns() + std::max<netsim::SimTime>(delay, 0);
  t.seq = next_timer_seq_++;
  t.fn = std::move(fn);
  timers_.push_back(std::move(t));
  std::push_heap(timers_.begin(), timers_.end(),
                 [](const Timer& a, const Timer& b) {
                   return std::tie(a.at, a.seq) > std::tie(b.at, b.seq);
                 });
}

netsim::SimTime SocketBackend::now() { return mono_ns(); }

void SocketBackend::try_flush() {
  if (conn_dead_ || !session_) return;
  if (write_some(fd_.get(), session_->outbox(), out_head_).status ==
      IoStatus::kError) {
    lose_conn();
  }
}

void SocketBackend::lose_conn() {
  conn_dead_ = true;
  established_.store(false, std::memory_order_release);
  PERA_OBS_COUNT("net.backend.conn_lost");
}

void SocketBackend::run_loop() {
  const auto timer_cmp = [](const Timer& a, const Timer& b) {
    return std::tie(a.at, a.seq) > std::tie(b.at, b.seq);
  };
  while (running_.load(std::memory_order_acquire)) {
    // Next timer bounds the poll; cap idle waits so stop() is prompt.
    const int timeout_ms =
        timers_.empty() ? 200 : std::min(remaining_ms(timers_.front().at), 200);
    pollfd fds[2];
    fds[0] = {wake_fd_.get(), POLLIN, 0};
    nfds_t n = 1;
    if (!conn_dead_) {
      short events = POLLIN;
      if (session_->outbox().size() > out_head_) events |= POLLOUT;
      fds[1] = {fd_.get(), events, 0};
      n = 2;
    }
    (void)::poll(fds, n, timeout_ms);

    if ((fds[0].revents & POLLIN) != 0) {
      std::uint64_t drain = 0;
      while (::read(wake_fd_.get(), &drain, sizeof(drain)) > 0) {
      }
    }

    // Posted work first: begin_round calls queue challenges the same
    // pass can flush below.
    std::vector<std::function<void()>> tasks;
    {
      const std::lock_guard<std::mutex> lock(post_mu_);
      tasks.swap(posted_);
    }
    for (auto& t : tasks) t();

    // Due timers (retry/backoff from the transport).
    const std::int64_t now_ts = mono_ns();
    while (!timers_.empty() && timers_.front().at <= now_ts) {
      std::pop_heap(timers_.begin(), timers_.end(), timer_cmp);
      Timer t = std::move(timers_.back());
      timers_.pop_back();
      t.fn();
    }

    if (!conn_dead_ && n == 2 &&
        (fds[1].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      if (read_drain(fd_.get(), [this](crypto::BytesView chunk) {
            return session_->on_bytes(chunk);
          }) != IoStatus::kWouldBlock) {
        lose_conn();
      }
      if (sink_) {
        for (ra::Certificate& cert : session_->take_results()) {
          sink_(cert);
          PERA_OBS_COUNT("net.backend.results");
        }
      } else {
        (void)session_->take_results();
      }
    }

    try_flush();
  }
  // Timers die with the loop; in-flight rounds simply never complete,
  // which only happens at shutdown.
  timers_.clear();
}

}  // namespace pera::net
