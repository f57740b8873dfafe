#include "fleet/wave.h"

#include <algorithm>

#include "obs/obs.h"

namespace pera::fleet {

TokenBucket::TokenBucket(double rate_per_sec, double burst)
    : rate_(std::max(rate_per_sec, 1e-9)),
      burst_(std::max(burst, 1.0)),
      tokens_(burst_) {}

void TokenBucket::refill(netsim::SimTime now) {
  if (now <= last_) return;
  const double elapsed_s =
      static_cast<double>(now - last_) / static_cast<double>(netsim::kSecond);
  tokens_ = std::min(burst_, tokens_ + rate_ * elapsed_s);
  last_ = now;
}

bool TokenBucket::try_take(netsim::SimTime now) {
  refill(now);
  if (tokens_ < 1.0) return false;
  tokens_ -= 1.0;
  return true;
}

netsim::SimTime TokenBucket::next_ready(netsim::SimTime now) {
  refill(now);
  if (tokens_ >= 1.0) return 0;
  const double deficit = 1.0 - tokens_;
  return static_cast<netsim::SimTime>(
      deficit / rate_ * static_cast<double>(netsim::kSecond)) + 1;
}

namespace {
ctrl::SchedulerConfig wave_scheduler_config(const WaveConfig& cfg) {
  // One track per region, riding the tables-level cadence slot.
  ctrl::SchedulerConfig sc;
  sc.cadence.tables = cfg.interval;
  sc.levels = nac::mask_of(nac::EvidenceDetail::kTables);
  sc.jitter = cfg.jitter;
  sc.stagger_start = cfg.stagger_start;
  return sc;
}
}  // namespace

WaveScheduler::WaveScheduler(netsim::EventQueue& events, WaveConfig config,
                             std::uint64_t seed)
    : inner_(events, wave_scheduler_config(config), seed), config_(config) {}

void WaveScheduler::add_region(const std::string& region) {
  if (live_.contains(region)) return;
  live_.insert(region);
  waves_.emplace(region, 0);
  inner_.add_switch(region);
}

void WaveScheduler::remove_region(const std::string& region) {
  live_.erase(region);
  inner_.remove_switch(region);
}

void WaveScheduler::start(Fire fire) {
  fire_ = std::move(fire);
  inner_.start([this](const std::string& region, nac::EvidenceDetail) {
    const std::uint64_t wave = ++waves_[region];
    ++total_;
    PERA_OBS_COUNT("fleet.waves.launched");
    fire_(region, wave);
  });
}

void WaveScheduler::stop() { inner_.stop(); }

void WaveScheduler::trigger_now(const std::string& region) {
  if (!inner_.running() || !fire_ || !live_.contains(region)) return;
  const std::uint64_t wave = ++waves_[region];
  ++total_;
  PERA_OBS_COUNT("fleet.waves.launched");
  PERA_OBS_COUNT("fleet.waves.triggered");
  fire_(region, wave);
}

std::uint64_t WaveScheduler::waves_of(const std::string& region) const {
  const auto it = waves_.find(region);
  return it == waves_.end() ? 0 : it->second;
}

RegionSession::RegionSession(std::vector<std::string> members, Config config,
                             Now now, ScheduleIn schedule_in,
                             StartRound start_round, Finished finished)
    : members_(std::move(members)),
      config_(config),
      now_(std::move(now)),
      schedule_in_(std::move(schedule_in)),
      start_round_(std::move(start_round)),
      on_finished_(std::move(finished)) {
  if (config_.max_inflight == 0) config_.max_inflight = 1;
}

void RegionSession::run() {
  if (abandoned_ || finished_flag_) return;
  if (members_.empty()) {
    finished_flag_ = true;
    if (on_finished_) on_finished_();
    return;
  }
  pump();
}

void RegionSession::pump() {
  if (abandoned_ || finished_flag_) return;
  while (next_ < members_.size() && inflight_ < config_.max_inflight) {
    if (config_.bucket != nullptr && !config_.bucket->try_take(now_())) {
      if (!waiting_for_token_) {
        waiting_for_token_ = true;
        const netsim::SimTime delay =
            std::max<netsim::SimTime>(config_.bucket->next_ready(now_()), 1);
        schedule_in_(delay, [this] {
          waiting_for_token_ = false;
          pump();
        });
      }
      return;
    }
    ++inflight_;
    peak_inflight_ = std::max(peak_inflight_, inflight_);
    const std::string member = members_[next_++];
    start_round_(member);
  }
}

void RegionSession::complete(const std::string& member) {
  (void)member;
  if (abandoned_ || finished_flag_) return;
  if (inflight_ > 0) --inflight_;
  ++completed_;
  if (completed_ >= members_.size()) {
    finished_flag_ = true;
    if (on_finished_) on_finished_();
    return;
  }
  pump();
}

}  // namespace pera::fleet
