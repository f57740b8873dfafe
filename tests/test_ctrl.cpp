// The attestation control plane (src/ctrl): trust state machine
// hysteresis (including a property-style never-flaps check), scheduler
// cadence/determinism and its tuning-advisor defaults, the retrying
// evidence transport over lossy links, duplicate-result suppression, and
// the full closed loop — program swap -> quarantine -> data rerouted ->
// restore -> reinstated — on the ISP topology.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "adversary/attacks.h"
#include "core/deployment.h"
#include "core/wire.h"
#include "ctrl/controller.h"
#include "ctrl/reroute.h"
#include "ctrl/scheduler.h"
#include "ctrl/transport.h"
#include "ctrl/trust.h"
#include "dataplane/builder.h"
#include "obs/obs.h"
#include "pera/tuning.h"

namespace {

using namespace pera;
using ctrl::Outcome;
using ctrl::TrustState;

core::DeploymentOptions seeded(std::uint64_t seed) {
  core::DeploymentOptions o;
  o.seed = seed;
  return o;
}

// ---------------------------------------------------------------- trust --

TEST(Trust, StartsTrustedAndRecoversFromSingleFailure) {
  ctrl::TrustStateMachine m("s1", {.quarantine_after = 3});
  EXPECT_EQ(m.state(), TrustState::kTrusted);
  EXPECT_EQ(m.record(Outcome::kFail, 10), TrustState::kSuspect);
  EXPECT_EQ(m.record(Outcome::kPass, 20), TrustState::kTrusted);
  EXPECT_EQ(m.consecutive_failures(), 0);
  EXPECT_EQ(m.transitions().size(), 2u);
}

TEST(Trust, QuarantinesAfterConsecutiveFailuresOnly) {
  ctrl::TrustStateMachine m("s1", {.quarantine_after = 3});
  m.record(Outcome::kFail, 1);
  m.record(Outcome::kTimeout, 2);
  EXPECT_EQ(m.state(), TrustState::kSuspect) << "2 of 3 failures: not yet";
  m.record(Outcome::kFail, 3);
  EXPECT_EQ(m.state(), TrustState::kQuarantined);
}

TEST(Trust, PassResetsFailureStreak) {
  ctrl::TrustStateMachine m("s1", {.quarantine_after = 2});
  // fail, pass, fail, pass, ... never quarantines: a single lost round
  // (timeout) between passes must not flap the switch out of the plane.
  for (int i = 0; i < 20; ++i) {
    m.record(Outcome::kTimeout, 2 * i);
    EXPECT_NE(m.state(), TrustState::kQuarantined);
    m.record(Outcome::kPass, 2 * i + 1);
    EXPECT_EQ(m.state(), TrustState::kTrusted);
  }
}

TEST(Trust, ReinstatesAfterConsecutivePassesWhileQuarantined) {
  ctrl::TrustStateMachine m("s1",
                            {.quarantine_after = 2, .reinstate_after = 3});
  m.record(Outcome::kFail, 1);
  m.record(Outcome::kFail, 2);
  ASSERT_EQ(m.state(), TrustState::kQuarantined);
  m.record(Outcome::kPass, 3);
  m.record(Outcome::kPass, 4);
  // A failure while quarantined resets the reinstatement streak.
  m.record(Outcome::kFail, 5);
  m.record(Outcome::kPass, 6);
  m.record(Outcome::kPass, 7);
  EXPECT_EQ(m.state(), TrustState::kQuarantined);
  m.record(Outcome::kPass, 8);
  EXPECT_EQ(m.state(), TrustState::kReinstated);
  m.record(Outcome::kPass, 9);
  EXPECT_EQ(m.state(), TrustState::kTrusted);
}

TEST(Trust, ProbationFailureSendsBackTowardQuarantine) {
  ctrl::TrustStateMachine m("s1",
                            {.quarantine_after = 2, .reinstate_after = 1});
  m.record(Outcome::kFail, 1);
  m.record(Outcome::kFail, 2);
  ASSERT_EQ(m.state(), TrustState::kQuarantined);
  m.record(Outcome::kPass, 3);
  ASSERT_EQ(m.state(), TrustState::kReinstated);
  m.record(Outcome::kFail, 4);
  EXPECT_EQ(m.state(), TrustState::kSuspect);
  m.record(Outcome::kFail, 5);
  EXPECT_EQ(m.state(), TrustState::kQuarantined);
}

TEST(Trust, ThresholdOneQuarantinesImmediately) {
  ctrl::TrustStateMachine m("s1", {.quarantine_after = 1});
  EXPECT_EQ(m.record(Outcome::kFail, 1), TrustState::kQuarantined);
  ASSERT_EQ(m.transitions().size(), 1u);
  EXPECT_EQ(m.transitions()[0].from, TrustState::kTrusted);
}

TEST(Trust, InvalidPolicyThrows) {
  EXPECT_THROW(ctrl::TrustStateMachine("s1", {.quarantine_after = 0}),
               std::invalid_argument);
  EXPECT_THROW(
      ctrl::TrustStateMachine("s1", {.quarantine_after = 1,
                                     .reinstate_after = 0}),
      std::invalid_argument);
}

TEST(Trust, TransitionsTimestampedAndReasoned) {
  ctrl::TrustStateMachine m("s1", {.quarantine_after = 2});
  m.record(Outcome::kFail, 100);
  m.record(Outcome::kFail, 200);
  m.record(Outcome::kPass, 300);
  m.record(Outcome::kPass, 400);
  const auto& ts = m.transitions();
  ASSERT_GE(ts.size(), 3u);
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_FALSE(ts[i].reason.empty());
    if (i > 0) {
      EXPECT_GE(ts[i].at, ts[i - 1].at);
    }
  }
}

// Property: under arbitrary seeded Bernoulli outcome streams, the machine
// never enters Quarantined without >= N consecutive non-pass outcomes and
// never leaves it without >= M consecutive passes — hysteresis cannot
// flap on isolated losses, whatever the loss pattern.
TEST(Trust, HysteresisNeverFlapsUnderBernoulli) {
  const ctrl::TrustPolicy policy{.quarantine_after = 3, .reinstate_after = 2};
  for (const double p_fail : {0.1, 0.5, 0.9}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      crypto::Drbg rng(seed * 977);
      ctrl::TrustStateMachine m("s1", policy);
      int ref_fails = 0;
      int ref_passes = 0;
      m.on_transition([&](const ctrl::TrustStateMachine&,
                          const ctrl::TrustTransition& t) {
        if (t.to == TrustState::kQuarantined) {
          EXPECT_GE(ref_fails, policy.quarantine_after)
              << "quarantined with only " << ref_fails
              << " consecutive failures (p=" << p_fail << " seed=" << seed
              << ")";
        }
        if (t.from == TrustState::kQuarantined &&
            t.to == TrustState::kReinstated) {
          EXPECT_GE(ref_passes, policy.reinstate_after);
        }
        if (t.from == TrustState::kTrusted) {
          EXPECT_NE(t.to, TrustState::kQuarantined)
              << "Trusted must dwell in Suspect first when N > 1";
        }
      });
      for (int i = 0; i < 400; ++i) {
        const bool fail = rng.chance(p_fail);
        if (fail) {
          ++ref_fails;
          ref_passes = 0;
        } else {
          ++ref_passes;
          ref_fails = 0;
        }
        m.record(fail ? Outcome::kTimeout : Outcome::kPass, i);
      }
    }
  }
}

// ------------------------------------------------------------ scheduler --

TEST(CtrlScheduler, DefaultIntervalsComeFromTuningAdvisor) {
  // The satellite wiring: SchedulerConfig's default cadence must be the
  // §5.2 advisor's recommendation for a nominal workload, not ad-hoc
  // constants.
  const ctrl::SchedulerConfig cfg;
  const auto rec = ::pera::pera::recommend_cadence(::pera::pera::WorkloadProfile{});
  EXPECT_EQ(cfg.cadence.hardware, rec.hardware);
  EXPECT_EQ(cfg.cadence.program, rec.program);
  EXPECT_EQ(cfg.cadence.tables, rec.tables);
  EXPECT_EQ(cfg.cadence.prog_state, rec.prog_state);
  EXPECT_EQ(cfg.cadence.packet, rec.packet);
}

TEST(CtrlScheduler, CadenceScalesWithChurn) {
  ::pera::pera::WorkloadProfile busy;
  busy.table_updates_per_second = 5.0;
  ::pera::pera::WorkloadProfile calm;
  calm.table_updates_per_second = 0.5;
  const auto busy_c = ::pera::pera::recommend_cadence(busy);
  const auto calm_c = ::pera::pera::recommend_cadence(calm);
  EXPECT_LT(busy_c.tables, calm_c.tables)
      << "higher churn must re-attest tables more often";
  // Hardware never churns: it sits at the ceiling heartbeat.
  EXPECT_EQ(busy_c.hardware, 60 * netsim::kSecond);
  // The floor clamps runaway rates.
  ::pera::pera::WorkloadProfile frantic;
  frantic.table_updates_per_second = 1e6;
  EXPECT_EQ(::pera::pera::recommend_cadence(frantic).tables,
            100 * netsim::kMillisecond);
}

TEST(CtrlScheduler, IssuesAtConfiguredCadence) {
  netsim::EventQueue events;
  ctrl::SchedulerConfig cfg;
  cfg.levels = nac::mask_of(nac::EvidenceDetail::kTables);
  cfg.cadence.tables = 10 * netsim::kMillisecond;
  cfg.jitter = 0.1;
  ctrl::ReattestScheduler sched(events, cfg, 42);
  sched.add_switch("s1");
  EXPECT_EQ(sched.track_count(), 1u);
  std::size_t fired = 0;
  sched.start([&](const std::string& place, nac::EvidenceDetail level) {
    EXPECT_EQ(place, "s1");
    EXPECT_EQ(level, nac::EvidenceDetail::kTables);
    ++fired;
  });
  events.run(netsim::kSecond);
  // ~100 rounds at 10 ms +-10% jitter; generous bounds.
  EXPECT_GE(fired, 80u);
  EXPECT_LE(fired, 125u);
  EXPECT_EQ(sched.rounds_issued(), fired);
}

TEST(CtrlScheduler, DeterministicPerSeed) {
  const auto fire_times = [](std::uint64_t seed) {
    netsim::EventQueue events;
    ctrl::SchedulerConfig cfg;
    cfg.levels = nac::EvidenceDetail::kProgram | nac::EvidenceDetail::kTables;
    cfg.cadence.program = 50 * netsim::kMillisecond;
    cfg.cadence.tables = 10 * netsim::kMillisecond;
    ctrl::ReattestScheduler sched(events, cfg, seed);
    sched.add_switch("s1");
    sched.add_switch("s2");
    std::vector<std::pair<netsim::SimTime, std::string>> fires;
    sched.start([&](const std::string& place, nac::EvidenceDetail level) {
      fires.emplace_back(events.now(), place + "/" + nac::to_string(level));
    });
    events.run(500 * netsim::kMillisecond);
    return fires;
  };
  EXPECT_EQ(fire_times(7), fire_times(7));
  EXPECT_NE(fire_times(7), fire_times(8)) << "jitter must depend on the seed";
}

TEST(CtrlScheduler, StopHaltsAndRestartWorks) {
  netsim::EventQueue events;
  ctrl::SchedulerConfig cfg;
  cfg.levels = nac::mask_of(nac::EvidenceDetail::kTables);
  cfg.cadence.tables = 10 * netsim::kMillisecond;
  ctrl::ReattestScheduler sched(events, cfg, 1);
  sched.add_switch("s1");
  sched.start([](const std::string&, nac::EvidenceDetail) {});
  EXPECT_THROW(sched.start([](const std::string&, nac::EvidenceDetail) {}),
               std::logic_error);
  events.run(100 * netsim::kMillisecond);
  const std::uint64_t at_stop = sched.rounds_issued();
  EXPECT_GT(at_stop, 0u);
  sched.stop();
  events.run(200 * netsim::kMillisecond);
  EXPECT_EQ(sched.rounds_issued(), at_stop) << "stopped scheduler kept firing";
  EXPECT_TRUE(events.empty()) << "stale events must drain, not re-arm";
  sched.start([](const std::string&, nac::EvidenceDetail) {});
  events.run(300 * netsim::kMillisecond);
  EXPECT_GT(sched.rounds_issued(), at_stop);
}

// ------------------------------------------------------------ transport --

// Test-side tap standing in for the controller: feeds delivered results
// into the transport and keeps the raw certificates for replay tests.
struct ResultTap final : netsim::NodeBehavior {
  ctrl::EvidenceTransport* transport = nullptr;
  std::vector<ra::Certificate> certs;

  void on_deliver(netsim::Network& net, netsim::NodeId,
                  netsim::Message msg) override {
    if (msg.type != "result") return;
    const ra::Certificate cert = ra::Certificate::deserialize(
        crypto::BytesView{msg.payload.data(), msg.payload.size()});
    certs.push_back(cert);
    (void)transport->on_result(cert, net.now());
  }
};

struct TransportRig {
  core::Deployment dep;
  ResultTap tap;
  ctrl::EvidenceTransport transport;
  std::vector<ctrl::RoundOutcome> outcomes;

  explicit TransportRig(std::uint64_t seed, ctrl::TransportConfig cfg = {})
      : dep(netsim::topo::chain(2), seeded(seed)),
        transport(dep.network(), dep.network().topology().require("client"),
                  dep.appraiser_name(), dep.keys(), cfg, seed) {
    dep.provision_goldens();
    tap.transport = &transport;
    dep.network().attach("client", &tap);
  }

  void round(const std::string& place = "s1") {
    transport.begin_round(
        place, nac::mask_of(nac::EvidenceDetail::kProgram),
        [this](const std::string&, const ctrl::RoundOutcome& out) {
          outcomes.push_back(out);
        });
  }
};

TEST(CtrlTransport, ReliableNetworkCompletesFirstAttempt) {
  TransportRig rig(11);
  rig.round();
  rig.dep.network().run();
  ASSERT_EQ(rig.outcomes.size(), 1u);
  EXPECT_TRUE(rig.outcomes[0].completed);
  EXPECT_TRUE(rig.outcomes[0].verdict);
  EXPECT_EQ(rig.outcomes[0].attempts, 1u);
  EXPECT_GT(rig.outcomes[0].rtt, 0);
  EXPECT_EQ(rig.transport.live_rounds(), 0u);
}

TEST(CtrlTransport, RetriesAreDeterministicPerSeed) {
  const auto run_once = [](std::uint64_t seed) {
    ctrl::TransportConfig cfg;
    cfg.timeout = 5 * netsim::kMillisecond;
    cfg.max_attempts = 10;
    TransportRig rig(seed, cfg);
    rig.dep.network().set_loss(0.5, 999);
    rig.round();
    rig.dep.network().run();
    return std::make_tuple(rig.outcomes.at(0).completed,
                           rig.outcomes.at(0).attempts,
                           rig.transport.stats().retries,
                           rig.dep.network().stats().messages_lost);
  };
  const auto a = run_once(21);
  EXPECT_EQ(a, run_once(21));
  EXPECT_GT(std::get<1>(a), 1u) << "50% per-hop loss should force retries";
}

TEST(CtrlTransport, GivesUpAfterMaxAttempts) {
  ctrl::TransportConfig cfg;
  cfg.timeout = 2 * netsim::kMillisecond;
  cfg.max_attempts = 3;
  TransportRig rig(5, cfg);
  rig.dep.network().set_loss(1.0, 1);
  rig.round();
  rig.dep.network().run();
  ASSERT_EQ(rig.outcomes.size(), 1u);
  EXPECT_FALSE(rig.outcomes[0].completed);
  EXPECT_EQ(rig.outcomes[0].attempts, 3u);
  EXPECT_EQ(rig.transport.stats().rounds_timed_out, 1u);
  EXPECT_EQ(rig.transport.stats().retries, 2u);
}

TEST(CtrlTransport, DuplicateResultSuppressedExactlyOnce) {
  TransportRig rig(31);
  rig.round();
  rig.dep.network().run();
  ASSERT_EQ(rig.outcomes.size(), 1u);
  ASSERT_EQ(rig.tap.certs.size(), 1u);
  // An adversary (or a late duplicate) re-delivers the same certificate:
  // consumed and counted, but the completion callback must not re-fire.
  EXPECT_TRUE(
      rig.transport.on_result(rig.tap.certs[0], rig.dep.network().now()));
  EXPECT_EQ(rig.transport.stats().duplicates_suppressed, 1u);
  EXPECT_EQ(rig.outcomes.size(), 1u);
}

// Regression for the unbounded nonce_to_round_ growth the transport had
// before the retention window: per-round state must stay bounded however
// many rounds run, while duplicate suppression still works inside the
// window.
TEST(CtrlTransport, PerRoundStateIsBoundedAcrossManyRounds) {
  ctrl::TransportConfig cfg;
  cfg.completed_retention = 16;
  TransportRig rig(51, cfg);
  const std::size_t kRounds = 200;
  for (std::size_t i = 0; i < kRounds; ++i) {
    rig.round();
    rig.dep.network().run();
  }
  ASSERT_EQ(rig.outcomes.size(), kRounds);
  EXPECT_EQ(rig.transport.live_rounds(), 0u);
  // Live + retained rounds only — not one entry per historical round.
  EXPECT_LE(rig.transport.tracked_rounds(), cfg.completed_retention);
  EXPECT_LE(rig.transport.nonce_index_size(),
            cfg.completed_retention * cfg.max_attempts);

  // A replay inside the retention window is still recognized...
  const std::size_t before = rig.outcomes.size();
  EXPECT_TRUE(
      rig.transport.on_result(rig.tap.certs.back(), rig.dep.network().now()));
  EXPECT_EQ(rig.transport.stats().duplicates_suppressed, 1u);
  EXPECT_EQ(rig.outcomes.size(), before) << "replay must not re-complete";
  // ...while one evicted from the window is no longer ours to consume.
  EXPECT_FALSE(
      rig.transport.on_result(rig.tap.certs.front(), rig.dep.network().now()));
}

TEST(CtrlTransport, ForeignNonceIsNotConsumed) {
  TransportRig rig(41);
  rig.round();
  rig.dep.network().run();
  ra::Certificate foreign = rig.tap.certs.at(0);
  foreign.nonce = crypto::Nonce{crypto::sha256("someone elses round")};
  EXPECT_FALSE(
      rig.transport.on_result(foreign, rig.dep.network().now()))
      << "a nonce the transport never issued must be delegated onward";
  EXPECT_EQ(rig.transport.stats().duplicates_suppressed, 0u);
}

// Regression for delegated (fleet) rounds: when an aggregate answers for
// a place before the per-switch result arrives, the live round must be
// settled exactly once by subsume_round — and the switch's own late
// "result" must then be suppressed as a duplicate, not double-delivered
// and not counted as a timeout.
TEST(CtrlTransport, SubsumedRoundSuppressesTheLateResult) {
  TransportRig rig(61);
  rig.round();
  // Do NOT run the network yet: the round is live, its result in flight.
  ASSERT_EQ(rig.transport.live_rounds(), 1u);

  ctrl::RoundOutcome sub;
  sub.completed = true;
  sub.verdict = true;
  EXPECT_EQ(rig.transport.subsume_round("s1", sub), 1u);
  EXPECT_EQ(rig.transport.stats().rounds_subsumed, 1u);
  EXPECT_EQ(rig.transport.live_rounds(), 0u);
  ASSERT_EQ(rig.outcomes.size(), 1u);
  EXPECT_TRUE(rig.outcomes[0].completed);
  EXPECT_TRUE(rig.outcomes[0].verdict);
  EXPECT_EQ(rig.outcomes[0].attempts, 1u)
      << "the subsumed outcome keeps the round's own attempt count";

  // The switch's own result now lands: one suppressed duplicate, no
  // second completion, and no timeout bookkeeping for a settled round.
  rig.dep.network().run();
  EXPECT_EQ(rig.transport.stats().duplicates_suppressed, 1u);
  EXPECT_EQ(rig.outcomes.size(), 1u);
  EXPECT_EQ(rig.transport.stats().rounds_timed_out, 0u);

  // With nothing live, subsumption is a no-op.
  EXPECT_EQ(rig.transport.subsume_round("s1", sub), 0u);
  EXPECT_EQ(rig.transport.stats().rounds_subsumed, 1u);
}

// ------------------------------------------------------------- rerouting --

core::FlowBundle plain_bundle() {
  core::FlowBundle b;
  b.raw = dataplane::make_tcp_packet({});
  return b;
}

void inject_data(core::Deployment& dep, const std::string& src,
                 const std::string& dst) {
  netsim::Message pkt;
  pkt.src = dep.network().topology().require(src);
  pkt.dst = dep.network().topology().require(dst);
  pkt.type = "data";
  plain_bundle().to_message(pkt);
  dep.network().send(std::move(pkt));
}

// Counts data packets transiting a node, delegating to the real switch.
struct TransitCounter final : netsim::NodeBehavior {
  netsim::NodeBehavior* inner = nullptr;
  std::uint64_t data_transits = 0;

  netsim::TransitResult on_transit(netsim::Network& net, netsim::NodeId self,
                                   netsim::Message& msg) override {
    if (msg.type == "data") ++data_transits;
    return inner != nullptr ? inner->on_transit(net, self, msg)
                            : netsim::TransitResult{};
  }
  void on_deliver(netsim::Network& net, netsim::NodeId self,
                  netsim::Message msg) override {
    if (inner != nullptr) inner->on_deliver(net, self, std::move(msg));
  }
};

TEST(CtrlReroute, QuarantinedSwitchBypassedByDataFlows) {
  core::Deployment dep(netsim::topo::isp(), seeded(3));
  dep.provision_goldens();
  auto& net = dep.network();

  TransitCounter counter;
  counter.inner = net.behavior_of(net.topology().require("core2"));
  net.attach("core2", &counter);

  inject_data(dep, "client", "pm_phone");
  net.run();
  EXPECT_EQ(counter.data_transits, 1u) << "primary path transits core2";

  net.set_node_quarantined("core2", true);
  const std::size_t recv_before = dep.host("pm_phone").received().size();
  for (int i = 0; i < 10; ++i) inject_data(dep, "client", "pm_phone");
  net.run();
  EXPECT_EQ(counter.data_transits, 1u)
      << "no data packet may transit a quarantined switch";
  EXPECT_EQ(dep.host("pm_phone").received().size(), recv_before + 10)
      << "traffic still arrives over the core1-core3 backup";
  EXPECT_GE(net.stats().data_rerouted, 10u);

  net.set_node_quarantined("core2", false);
  inject_data(dep, "client", "pm_phone");
  net.run();
  EXPECT_EQ(counter.data_transits, 2u) << "reinstated switch carries again";
}

TEST(CtrlReroute, ControlTrafficStillReachesQuarantinedSwitch) {
  core::Deployment dep(netsim::topo::isp(), seeded(4));
  dep.provision_goldens();
  dep.network().set_node_quarantined("core2", true);
  // Out-of-band attestation of the quarantined switch itself must work —
  // that is how it ever gets reinstated.
  const auto rep = dep.run_out_of_band(
      "client", "core2", nac::mask_of(nac::EvidenceDetail::kProgram));
  EXPECT_TRUE(rep.accepted);
}

TEST(CtrlReroute, NoAlternatePathFallsBackAndCounts) {
  core::Deployment dep(netsim::topo::chain(2), seeded(5));
  dep.provision_goldens();
  auto& net = dep.network();
  net.set_node_quarantined("s1", true);
  const std::size_t recv_before = dep.host("server").received().size();
  for (int i = 0; i < 5; ++i) inject_data(dep, "client", "server");
  net.run();
  EXPECT_EQ(dep.host("server").received().size(), recv_before + 5)
      << "a chain has no detour: traffic must still flow";
  EXPECT_GE(net.stats().reroute_fallbacks, 5u);
  EXPECT_EQ(net.stats().data_rerouted, 0u);
}

TEST(CtrlReroute, EnforcerAppliesOnlyQuarantineBoundary) {
  core::Deployment dep(netsim::topo::isp(), seeded(6));
  dep.provision_goldens();
  ctrl::QuarantineEnforcer enf(dep.network());
  const ctrl::TrustTransition to_suspect{
      0, TrustState::kTrusted, TrustState::kSuspect, "x"};
  enf.apply("core2", to_suspect);
  EXPECT_FALSE(enf.is_quarantined("core2"));
  EXPECT_TRUE(dep.network().quarantined_nodes().empty());

  const ctrl::TrustTransition to_quarantine{
      1, TrustState::kSuspect, TrustState::kQuarantined, "x"};
  enf.apply("core2", to_quarantine);
  EXPECT_TRUE(enf.is_quarantined("core2"));
  EXPECT_EQ(dep.network().quarantined_nodes().size(), 1u);
  EXPECT_EQ(enf.stats().quarantines, 1u);

  const ctrl::TrustTransition to_reinstated{
      2, TrustState::kQuarantined, TrustState::kReinstated, "x"};
  enf.apply("core2", to_reinstated);
  EXPECT_FALSE(enf.is_quarantined("core2"));
  EXPECT_TRUE(dep.network().quarantined_nodes().empty());
  EXPECT_EQ(enf.stats().reinstatements, 1u);
}

// ----------------------------------------------------------- closed loop --

ctrl::ControllerConfig fast_loop_config() {
  ctrl::ControllerConfig cfg;
  cfg.trust.quarantine_after = 2;
  cfg.trust.reinstate_after = 2;
  cfg.scheduler.cadence.hardware = 10 * netsim::kMillisecond;
  cfg.scheduler.cadence.program = 10 * netsim::kMillisecond;
  cfg.scheduler.cadence.tables = 10 * netsim::kMillisecond;
  cfg.transport.timeout = 5 * netsim::kMillisecond;
  return cfg;
}

TEST(CtrlLoop, HealthySwitchesStayTrustedForever) {
  core::Deployment dep(netsim::topo::isp(), seeded(7));
  dep.provision_goldens();
  ctrl::AttestationController controller(dep, "client", fast_loop_config(),
                                         7);
  controller.start();
  dep.network().run(500 * netsim::kMillisecond);
  controller.stop();
  dep.network().run();
  EXPECT_TRUE(controller.timeline().empty())
      << "no transitions on a healthy, lossless deployment";
  EXPECT_GT(controller.rounds_passed(), 0u);
  EXPECT_EQ(controller.rounds_failed(), 0u);
  EXPECT_EQ(controller.rounds_timed_out(), 0u);
  for (const auto& place : dep.attesting_elements()) {
    EXPECT_EQ(controller.trust(place).state(), TrustState::kTrusted);
  }
}

TEST(CtrlLoop, ProgramSwapWalksSuspectThenQuarantine) {
  core::Deployment dep(netsim::topo::isp(), seeded(8));
  dep.provision_goldens();
  ctrl::AttestationController controller(dep, "client", fast_loop_config(),
                                         8);
  auto& net = dep.network();
  net.events().schedule_at(50 * netsim::kMillisecond, [&] {
    adversary::program_swap_attack(dep, "core2");
  });
  controller.start();
  net.run(500 * netsim::kMillisecond);
  controller.stop();
  net.run();

  const auto q =
      controller.first_transition("core2", TrustState::kQuarantined);
  ASSERT_TRUE(q.has_value());
  EXPECT_GE(*q, 50 * netsim::kMillisecond);
  EXPECT_LE(*q, 150 * netsim::kMillisecond)
      << "2 consecutive failures at 10 ms cadence must land well inside "
         "100 ms";
  // The walk is ordered: Suspect strictly before Quarantined.
  const auto s = controller.first_transition("core2", TrustState::kSuspect);
  ASSERT_TRUE(s.has_value());
  EXPECT_LT(*s, *q);
  // Only core2 was implicated.
  for (const auto& e : controller.timeline()) EXPECT_EQ(e.place, "core2");
  EXPECT_TRUE(dep.network().quarantined_nodes().contains(
      dep.network().topology().require("core2")));
}

TEST(CtrlLoop, QuarantineReroutesLiveTraffic) {
  core::Deployment dep(netsim::topo::isp(), seeded(9));
  dep.provision_goldens();
  ctrl::AttestationController controller(dep, "client", fast_loop_config(),
                                         9);
  auto& net = dep.network();
  net.events().schedule_at(50 * netsim::kMillisecond, [&] {
    adversary::program_swap_attack(dep, "core2");
  });
  controller.start();
  net.run(300 * netsim::kMillisecond);
  ASSERT_TRUE(controller.quarantine().is_quarantined("core2"));

  const auto rerouted_before = net.stats().data_rerouted;
  const std::size_t recv_before = dep.host("pm_phone").received().size();
  for (int i = 0; i < 8; ++i) inject_data(dep, "client", "pm_phone");
  net.run(400 * netsim::kMillisecond);
  EXPECT_EQ(dep.host("pm_phone").received().size(), recv_before + 8);
  EXPECT_GE(net.stats().data_rerouted, rerouted_before + 8);
  controller.stop();
  net.run();
}

TEST(CtrlLoop, RestoreReinstatesAndReturnsTraffic) {
  core::Deployment dep(netsim::topo::isp(), seeded(10));
  dep.provision_goldens();
  ctrl::AttestationController controller(dep, "client", fast_loop_config(),
                                         10);
  auto& net = dep.network();
  net.events().schedule_at(50 * netsim::kMillisecond, [&] {
    adversary::program_swap_attack(dep, "core2");
  });
  net.events().schedule_at(300 * netsim::kMillisecond, [&] {
    adversary::program_restore(dep, "core2");
  });
  controller.start();
  net.run(800 * netsim::kMillisecond);
  controller.stop();
  net.run();

  const auto r =
      controller.first_transition("core2", TrustState::kReinstated);
  ASSERT_TRUE(r.has_value());
  EXPECT_GE(*r, 300 * netsim::kMillisecond)
      << "must not reinstate while the rogue program is still loaded";
  EXPECT_EQ(controller.trust("core2").state(), TrustState::kTrusted);
  EXPECT_TRUE(net.quarantined_nodes().empty());
  EXPECT_GE(controller.quarantine().stats().reinstatements, 1u);
}

TEST(CtrlLoop, TimelineIsDeterministicPerSeed) {
  const auto run_scenario = [](std::uint64_t seed) {
    core::Deployment dep(netsim::topo::isp(), seeded(seed));
    dep.provision_goldens();
    dep.network().set_loss(0.05, seed + 7);
    ctrl::AttestationController controller(dep, "client", fast_loop_config(),
                                           seed);
    auto& net = dep.network();
    net.events().schedule_at(50 * netsim::kMillisecond, [&] {
      adversary::program_swap_attack(dep, "core2");
    });
    net.events().schedule_at(300 * netsim::kMillisecond, [&] {
      adversary::program_restore(dep, "core2");
    });
    controller.start();
    net.run(600 * netsim::kMillisecond);
    controller.stop();
    net.run();
    std::vector<std::tuple<std::string, int, int, netsim::SimTime>> out;
    for (const auto& e : controller.timeline()) {
      out.emplace_back(e.place, static_cast<int>(e.transition.from),
                       static_cast<int>(e.transition.to), e.transition.at);
    }
    return out;
  };
  const auto a = run_scenario(1234);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, run_scenario(1234));
}

TEST(CtrlLoop, EpochBumpEmitsObsEvent) {
  obs::reset();
  obs::set_enabled(true);
  core::Deployment dep(netsim::topo::chain(2), seeded(11));
  dep.provision_goldens();
  const auto before = obs::metrics().counter("pera.epoch.program").value();
  dep.switch_node("s1").pera().load_program(dataplane::make_router());
  EXPECT_EQ(obs::metrics().counter("pera.epoch.program").value(), before + 1);
  const auto events = obs::trace_snapshot();
  const bool saw_bump =
      std::any_of(events.begin(), events.end(), [](const obs::SpanEvent& e) {
        return e.kind == obs::SpanKind::kEpochBump;
      });
  EXPECT_TRUE(saw_bump) << "load_program must record a kEpochBump span";
  obs::set_enabled(false);
  obs::reset();
}

}  // namespace
