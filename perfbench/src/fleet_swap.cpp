// fleet_swap: hierarchical fleet appraisal with a mid-run program swap.
//
// FleetController on netsim::topo::fleet with 1000 switches behind
// fanout-32 regional appraisers and no loss, as in the fleet scaling
// sweep. A pass builds the deployment and the controller (timed as
// set-up), hot-swaps one seeded victim's program at a seeded sim time,
// and runs a fixed stretch of sim time in 100 ms slices. Checks: the
// victim is quarantined after the swap, no other switch is, and no
// aggregate fails verification.
#include <optional>
#include <random>

#include "adversary/attacks.h"
#include "common.h"
#include "copland/evidence.h"
#include "core/deployment.h"
#include "dataplane/builder.h"
#include "fleet/aggregate.h"
#include "fleet/controller.h"
#include "netsim/topology.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace pera;

constexpr netsim::SimTime kSlice = 100 * netsim::kMillisecond;

fleet::FleetConfig fleet_config(std::size_t fanout) {
  fleet::FleetConfig cfg;
  cfg.fanout = fanout;
  cfg.wave.interval = 100 * netsim::kMillisecond;
  cfg.wave_timeout = 75 * netsim::kMillisecond;
  cfg.transport.timeout = 20 * netsim::kMillisecond;
  cfg.root_transport.timeout = 20 * netsim::kMillisecond;
  cfg.trust.quarantine_after = 3;
  cfg.trust.reinstate_after = 2;
  cfg.admit_burst = static_cast<double>(fanout);
  cfg.split_after_failures = 1000;  // steady-state appraisal, no region surgery
  return cfg;
}

struct Pass {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::optional<double> detect_ms;
  std::uint64_t member_rounds = 0;
  fleet::FleetStats stats;
  double msgs_per_switch_per_wave = 0.0;
  std::size_t peak_root = 0;
  std::size_t peak_regional = 0;
  std::size_t false_quarantines = 0;
};

// Root-side cost probes on a live deployment: appraising one member's
// evidence, and verifying one region's signed aggregate.
void probes(core::Deployment& dep, const fleet::FleetController& controller,
            const fleet::FleetConfig& cfg, std::uint64_t seed, Tracer* tr,
            Report& rep) {
  const fleet::Region* region = controller.tree().regions().front();
  ra::Appraiser& root = dep.appraiser().appraiser();
  const crypto::Nonce wave_nonce{crypto::sha256("perfbench-probe-wave-" + std::to_string(seed))};
  const std::uint64_t wave = 1'000'000;
  fleet::EvidenceAggregator agg(region->name, region->appraiser, region->members);
  agg.begin_wave(wave, wave_nonce);
  for (const std::string& m : region->members) {
    const crypto::Nonce nonce = fleet::derive_member_nonce(wave_nonce, m, 1);
    const copland::EvidencePtr ev =
        dep.switch_node(m).pera().attest_challenge(cfg.detail, nonce, false);
    bool ok = false;
    {
      const Scope p(tr, "probe");
      const Scope s(tr, "ra.appraise");
      ok = root.appraise(ev, nonce, /*certify=*/false,
                         static_cast<std::int64_t>(dep.network().now()),
                         /*enforce_freshness=*/false)
               .ok;
    }
    fleet::AggregateEntry e;
    e.place = m;
    e.outcome = ok ? fleet::EntryOutcome::kPass : fleet::EntryOutcome::kFail;
    e.verdict = ok;
    e.attempts = 1;
    e.measurement_root = fleet::measurement_root_of(ev);
    e.evidence_digest = copland::digest(ev);
    e.evidence = copland::encode(ev);
    agg.record(std::move(e));
  }
  crypto::Signer* signer = dep.keys().signer_for(region->appraiser);
  if (signer == nullptr) {
    rep.fail(1, "probe: no signing key for " + region->appraiser);
    return;
  }
  const fleet::Aggregate sealed = agg.seal(*signer);
  fleet::VerifyOptions vo;
  vo.keys = &dep.keys();
  vo.root_appraiser = &root;
  vo.audit_entries = cfg.audit_entries;
  vo.audit_seed = seed;
  vo.max_attempts = static_cast<std::uint32_t>(cfg.transport.max_attempts);
  vo.require_evidence = cfg.carry_evidence;
  for (int i = 0; i < 16; ++i) {
    fleet::AggregateCheck check;
    {
      const Scope p(tr, "probe");
      const Scope s(tr, "fleet.verify_aggregate");
      check = fleet::verify_aggregate(sealed, region->members, wave_nonce, wave, vo);
    }
    if (!check.valid) {
      rep.fail(1, "probe: a freshly sealed honest aggregate failed verification: " +
                      check.reason);
      return;
    }
  }
}

Pass run_pass(std::size_t n, std::size_t fanout, netsim::SimTime sim_run,
              std::uint64_t seed, std::uint64_t pass_index, Tracer* tr,
              Report* probe_rep) {
  std::mt19937_64 rng(seed * 0x2545F4914F6CDD1DULL + pass_index);
  const std::string victim = "sw" + std::to_string(rng() % n);
  const netsim::SimTime swap_at =
      200 * netsim::kMillisecond +
      static_cast<netsim::SimTime>(rng() % 200) * netsim::kMillisecond;
  const std::uint64_t dep_seed = rng();
  Pass p;

  const double s0 = wall_s();
  core::DeploymentOptions dopt;
  dopt.seed = dep_seed;
  // One shared router program across the fleet, as in the scaling sweep.
  const auto shared_router = dataplane::make_router();
  dopt.program_for = [shared_router](const netsim::NodeInfo&) { return shared_router; };
  core::Deployment dep(netsim::topo::fleet(n, fanout), dopt);
  dep.provision_goldens();
  const fleet::FleetConfig cfg = fleet_config(fanout);
  fleet::FleetController controller(
      dep, "root",
      fleet::DelegationTree::build(fleet::fleet_switch_names(n),
                                   fleet::fleet_regional_names(n, fanout), {fanout}),
      cfg, dep_seed);
  p.setup_s = wall_s() - s0;

  auto& net = dep.network();
  net.events().schedule_at(swap_at, [&dep, victim] {
    (void)adversary::program_swap_attack(dep, victim);
  });
  const double c0 = cpu_s();
  const double t0 = wall_s();
  controller.start();
  for (netsim::SimTime t = kSlice; t <= sim_run; t += kSlice) {
    const Scope s(tr, "netsim.slice");
    net.run(t);
  }
  controller.stop();
  p.wall_s = wall_s() - t0;
  p.cpu_s = cpu_s() - c0;

  const auto q = controller.first_transition(victim, ctrl::TrustState::kQuarantined);
  if (q && *q >= swap_at) p.detect_ms = static_cast<double>(*q - swap_at) / 1e6;
  for (const fleet::FleetTimelineEntry& e : controller.timeline()) {
    if (e.place != victim && e.transition.to == ctrl::TrustState::kQuarantined) {
      ++p.false_quarantines;
    }
  }
  p.stats = controller.stats();
  p.member_rounds = p.stats.entries_applied;
  if (p.stats.waves_launched > 0) {
    p.msgs_per_switch_per_wave = static_cast<double>(net.stats().messages_sent) /
                                 static_cast<double>(n) /
                                 static_cast<double>(p.stats.waves_launched);
  }
  p.peak_root = controller.peak_root_inflight();
  for (const auto& a : controller.tree().appraisers()) {
    p.peak_regional = std::max(p.peak_regional, controller.regional(a).peak_inflight());
  }
  if (probe_rep != nullptr) probes(dep, controller, cfg, seed, tr, *probe_rep);
  net.run();
  return p;
}

}  // namespace

Report run_fleet_swap(const RunOptions& opt) {
  const std::size_t n = opt.tiny ? 64 : 1000;
  const std::size_t fanout = opt.tiny ? 8 : 32;
  const netsim::SimTime sim_run = 1500 * netsim::kMillisecond;
  const std::size_t min_passes = 3;
  const double budget = opt.trace ? 0.5 * opt.seconds : opt.seconds;
  Report rep;
  Tracer tracer;

  std::vector<Pass> passes, traced;
  for (const double start = wall_s();
       passes.size() < min_passes || wall_s() - start < budget;) {
    passes.push_back(run_pass(n, fanout, sim_run, opt.seed, passes.size(), nullptr, nullptr));
  }
  if (opt.trace) {
    for (const double start = wall_s();
         traced.size() < min_passes || wall_s() - start < 0.35 * opt.seconds;) {
      traced.push_back(run_pass(n, fanout, sim_run, opt.seed, traced.size(), &tracer,
                                traced.empty() ? &rep : nullptr));
    }
  }

  std::vector<double> setup, mrps, traced_mrps, detect, waves, msgs, peak_root, peak_reg;
  double cpu = 0.0;
  std::uint64_t member_rounds = 0, invalid = 0;
  for (const std::vector<Pass>* set : {&passes, &traced}) {
    for (const Pass& p : *set) {
      rep.attempted += p.member_rounds + 1;  // member rounds + the detection
      if (!p.detect_ms) rep.fail(1, "pass: the swapped victim was not quarantined");
      if (p.false_quarantines > 0) {
        rep.fail(p.false_quarantines, "pass: an unmodified switch was quarantined");
      }
      if (p.stats.aggregates_invalid > 0) {
        rep.fail(p.stats.aggregates_invalid, "pass: aggregates failed verification");
      }
      invalid += p.stats.aggregates_invalid;
      const double rate = static_cast<double>(p.member_rounds) / p.wall_s;
      if (set == &traced) {
        traced_mrps.push_back(rate);
        continue;
      }
      setup.push_back(p.setup_s);
      mrps.push_back(rate);
      if (p.detect_ms) detect.push_back(*p.detect_ms);
      waves.push_back(static_cast<double>(p.stats.waves_launched));
      msgs.push_back(p.msgs_per_switch_per_wave);
      peak_root.push_back(static_cast<double>(p.peak_root));
      peak_reg.push_back(static_cast<double>(p.peak_regional));
      cpu += p.cpu_s;
      member_rounds += p.member_rounds;
    }
  }
  const double rate = median(mrps);
  const double cpu_us =
      cpu * 1e6 / static_cast<double>(std::max<std::uint64_t>(1, member_rounds));
  rep.named = {
      {"member_rounds_per_s", {rate, "1/s"}},
      {"detect_ms", {median(detect), "ms"}},
      {"cpu_us_per_op", {cpu_us, "us"}},
      {"setup_s", {median(setup), "s"}},
      {"passes", {static_cast<double>(passes.size()), "count"}},
      {"switches", {static_cast<double>(n), "count"}},
  };
  rep.e2e["ops_per_s"] = {rate, "1/s"};
  rep.e2e["cpu_us_per_op"] = {cpu_us, "us"};
  rep.e2e["setup_s"] = {median(setup), "s"};
  rep.layers["fleet.detect_ms"] = {median(detect), "ms"};
  rep.layers["fleet.waves"] = {median(waves), "count"};
  rep.layers["fleet.aggregates_invalid"] = {static_cast<double>(invalid), "count"};
  rep.layers["netsim.msgs_per_switch_per_wave"] = {median(msgs), "count"};
  rep.layers["fleet.peak_root_load"] = {median(peak_root), "count"};
  rep.layers["fleet.peak_regional_load"] = {median(peak_reg), "count"};
  if (opt.trace) {
    rep.layers["trace.overhead_ratio"] = {rate / median(traced_mrps), "ratio"};
    finish_trace(tracer, opt, rep);
  }
  return rep;
}

}  // namespace perfbench
