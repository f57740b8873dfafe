// Continuous re-attestation scheduling on the deterministic event queue.
//
// One periodic track per (switch, inertia level): high-inertia levels
// (hardware, program) re-attest on slow heartbeats, low-inertia levels
// (tables) near the churn rate — the intervals default to the tuning
// advisor's recommendation (pera::recommend_cadence). Each fire applies
// seeded jitter so a fleet of switches provisioned at the same instant
// never synchronizes its attestation bursts against the appraiser.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "crypto/drbg.h"
#include "nac/detail.h"
#include "netsim/event.h"
#include "pera/tuning.h"

namespace pera::ctrl {

struct SchedulerConfig {
  /// Per-inertia-level re-attestation intervals (sim ns). The default is
  /// the §5.2 tuning advisor's cadence for a nominal workload.
  pera::ReattestCadence cadence =
      pera::recommend_cadence(pera::WorkloadProfile{});
  /// Which levels get a periodic track per switch.
  nac::DetailMask levels = nac::EvidenceDetail::kHardware |
                           nac::EvidenceDetail::kProgram |
                           nac::EvidenceDetail::kTables;
  /// Each period is scaled by a seeded factor in [1 - jitter, 1 + jitter].
  double jitter = 0.1;
  /// Spread each track's first round uniformly over its interval instead
  /// of bursting every track at start().
  bool stagger_start = true;
};

class ReattestScheduler {
 public:
  /// `issue` is called once per due round.
  using Issue =
      std::function<void(const std::string& place, nac::EvidenceDetail level)>;

  ReattestScheduler(netsim::EventQueue& events, SchedulerConfig config,
                    std::uint64_t seed);

  /// Register an attesting element (one track per configured level).
  /// Tracks added while running are armed immediately.
  void add_switch(const std::string& place);

  /// Retire every track of `place`: its queued rounds no-op and it never
  /// re-arms, so a retired element leaves no events behind.
  void remove_switch(const std::string& place);

  /// Begin issuing rounds. Throws std::logic_error when already running.
  void start(Issue issue);

  /// Stop issuing. Events already queued become no-ops, so a simulation
  /// run() drains instead of ticking forever.
  void stop();

  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] std::uint64_t rounds_issued() const { return issued_; }
  [[nodiscard]] std::size_t track_count() const { return tracks_.size(); }
  [[nodiscard]] const SchedulerConfig& config() const { return config_; }

 private:
  struct Track {
    std::string place;
    nac::EvidenceDetail level;
    crypto::Drbg rng;
    bool retired = false;
  };

  void arm(std::size_t track, bool first);
  [[nodiscard]] netsim::SimTime jittered(netsim::SimTime interval,
                                         crypto::Drbg& rng) const;

  netsim::EventQueue* events_;
  SchedulerConfig config_;
  crypto::Drbg root_rng_;
  std::vector<std::unique_ptr<Track>> tracks_;
  Issue issue_;
  bool running_ = false;
  std::uint64_t generation_ = 0;  // stale queued events no-op via this
  std::uint64_t issued_ = 0;
};

}  // namespace pera::ctrl
