// Observability subsystem: metrics registry correctness, the span
// recorder's per-thread retention and drop accounting, JSON export
// round-trip, and the disabled-toggle no-op guarantee — plus an
// end-to-end check that a PERA switch actually populates the registry.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "crypto/keystore.h"
#include "dataplane/builder.h"
#include "obs/obs.h"
#include "pera/pera_switch.h"

namespace {

using namespace pera;

// Minimal JSON scraping for round-trip checks: find the integer value
// following `"key":` (first occurrence).
std::optional<long long> json_int(const std::string& json,
                                  const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return std::nullopt;
  std::size_t i = at + needle.size();
  bool neg = false;
  if (i < json.size() && json[i] == '-') {
    neg = true;
    ++i;
  }
  if (i >= json.size() || !std::isdigit(static_cast<unsigned char>(json[i]))) {
    return std::nullopt;
  }
  long long v = 0;
  while (i < json.size() && std::isdigit(static_cast<unsigned char>(json[i]))) {
    v = v * 10 + (json[i++] - '0');
  }
  return neg ? -v : v;
}

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::reset();
    obs::set_enabled(true);
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::set_trace_capacity(obs::kDefaultTraceCapacity);
    obs::reset();
  }
};

TEST_F(ObsTest, CounterAccumulatesAndResets) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("x.count");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name returns the same counter.
  EXPECT_EQ(&reg.counter("x.count"), &c);
  reg.reset_values();
  EXPECT_EQ(c.value(), 0u);  // handle survives reset
}

TEST_F(ObsTest, GaugeSetAddValue) {
  obs::MetricsRegistry reg;
  obs::Gauge& g = reg.gauge("x.depth");
  g.set(7);
  g.add(-3);
  EXPECT_EQ(g.value(), 4);
}

TEST_F(ObsTest, HistogramBucketsSumMinMaxOverflow) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("x.lat", {10, 100, 1000});
  h.observe(5);     // bucket 0 (<= 10)
  h.observe(10);    // bucket 0 (boundary is inclusive)
  h.observe(11);    // bucket 1
  h.observe(1000);  // bucket 2
  h.observe(5000);  // overflow
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 5 + 10 + 11 + 1000 + 5000);
  EXPECT_EQ(h.min(), 5);
  EXPECT_EQ(h.max(), 5000);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_DOUBLE_EQ(h.mean(), 6026.0 / 5.0);
}

TEST_F(ObsTest, HistogramRejectsBadBounds) {
  obs::MetricsRegistry reg;
  EXPECT_THROW(reg.histogram("bad.empty", {}), std::invalid_argument);
  EXPECT_THROW(reg.histogram("bad.unsorted", {10, 5}), std::invalid_argument);
  EXPECT_THROW(reg.histogram("bad.dup", {10, 10}), std::invalid_argument);
}

TEST_F(ObsTest, RegistryJsonRoundTrip) {
  obs::MetricsRegistry reg;
  reg.counter("a.hits").add(17);
  reg.gauge("b.depth").set(-4);
  obs::Histogram& h = reg.histogram("c.lat", {100, 200});
  h.observe(50);
  h.observe(150);
  h.observe(999);

  const std::string json = reg.to_json();
  EXPECT_EQ(json_int(json, "a.hits"), 17);
  EXPECT_EQ(json_int(json, "b.depth"), -4);
  EXPECT_EQ(json_int(json, "count"), 3);  // first histogram field
  EXPECT_EQ(json_int(json, "sum"), 50 + 150 + 999);
  EXPECT_EQ(json_int(json, "overflow"), 1);
  // Exported values match the live registry exactly.
  EXPECT_EQ(static_cast<unsigned long long>(*json_int(json, "a.hits")),
            reg.counter("a.hits").value());
}

TEST_F(ObsTest, TraceRingOverflowDropAccounting) {
  obs::set_trace_capacity(4);
  for (int i = 0; i < 10; ++i) {
    obs::event(obs::SpanKind::kMeasure, "e" + std::to_string(i), 0,
               static_cast<std::uint64_t>(i));
  }
  obs::TraceStats stats = obs::trace_stats();
  EXPECT_EQ(stats.events, 4u);
  EXPECT_EQ(stats.recorded, 10u);
  EXPECT_EQ(stats.dropped, 6u);
  // The newest events are retained, oldest-first, with monotonic seq.
  const auto events = obs::trace_snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().name, "e6");
  EXPECT_EQ(events.back().name, "e9");
  EXPECT_EQ(events.back().value, 9u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
  }

  const std::string json = obs::trace_json();
  EXPECT_EQ(json_int(json, "recorded"), 10);
  EXPECT_EQ(json_int(json, "dropped"), 6);
  EXPECT_EQ(json_int(json, "capacity"), 4);

  obs::reset();
  stats = obs::trace_stats();
  EXPECT_EQ(stats.events, 0u);
  EXPECT_EQ(stats.dropped, 0u);
}

TEST_F(ObsTest, SetCapacityResizesAndClears) {
  obs::set_trace_capacity(2);
  for (int i = 0; i < 3; ++i) obs::event(obs::SpanKind::kSign, "x");
  EXPECT_EQ(obs::trace_stats().dropped, 1u);
  obs::set_trace_capacity(8);
  EXPECT_EQ(obs::trace_capacity(), 8u);
  EXPECT_EQ(obs::trace_stats().events, 0u);
  EXPECT_EQ(obs::trace_stats().dropped, 0u);
  EXPECT_THROW(obs::set_trace_capacity(0), std::invalid_argument);
}

TEST_F(ObsTest, DisabledToggleIsANoOp) {
  obs::set_enabled(false);
  const std::uint64_t before = obs::trace_stats().recorded;

  PERA_OBS_COUNT("noop.count");
  PERA_OBS_GAUGE("noop.gauge", 9);
  PERA_OBS_OBSERVE("noop.lat", 123);
  PERA_OBS_EVENT(obs::SpanKind::kSign, "noop");
  { obs::ScopedSpan span(obs::SpanKind::kAppraise, "noop"); }

  EXPECT_EQ(obs::metrics().find_counter("noop.count"), nullptr);
  EXPECT_EQ(obs::metrics().find_gauge("noop.gauge"), nullptr);
  EXPECT_EQ(obs::metrics().find_histogram("noop.lat"), nullptr);
  EXPECT_EQ(obs::trace_stats().recorded, before);

  // Direct helper calls are gated too (macros are just lazy-arg sugar).
  obs::count("noop.count");
  EXPECT_EQ(obs::metrics().find_counter("noop.count"), nullptr);
}

TEST_F(ObsTest, ScopedSpanRecordsCostAndValue) {
  {
    obs::ScopedSpan span(obs::SpanKind::kEvidenceCreate, "unit");
    span.add_cost(100);
    span.add_cost(20);
    span.set_value(7);
  }
  const auto events = obs::trace_snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, obs::SpanKind::kEvidenceCreate);
  EXPECT_EQ(events[0].name, "unit");
  EXPECT_EQ(events[0].duration, 120);
  EXPECT_EQ(events[0].value, 7u);
}

TEST_F(ObsTest, SpanKindNamesAreStable) {
  EXPECT_STREQ(obs::to_string(obs::SpanKind::kCacheHit), "cache_hit");
  EXPECT_STREQ(obs::to_string(obs::SpanKind::kWireDecode), "wire_decode");
}

// End-to-end: one attested packet through a PERA switch populates the
// cache counters, the sign histogram and the per-level wire bytes that
// bench_fig4_design_space --metrics-json exports.
TEST_F(ObsTest, PeraSwitchPopulatesPipelineMetrics) {
  crypto::KeyStore keys(7);
  ::pera::pera::PeraSwitch sw("sw1", dataplane::make_router(),
                              keys.provision_hmac("sw1"));

  nac::CompiledPolicy pol;
  nac::HopInstruction inst;
  inst.wildcard = true;
  inst.detail = nac::mask_of(nac::EvidenceDetail::kProgram);
  inst.sign_evidence = true;
  pol.hops = {inst};
  pol.appraiser = "Appraiser";
  const nac::PolicyHeader hdr = nac::make_header(
      pol, crypto::Nonce{crypto::sha256("flow")}, /*in_band=*/true, 0);

  const dataplane::RawPacket pkt = dataplane::make_tcp_packet({});
  for (int i = 0; i < 4; ++i) {
    nac::EvidenceCarrier carrier;
    const auto res = sw.process(pkt, &hdr, &carrier);
    EXPECT_TRUE(res.attested);
  }

  const obs::Counter* miss = obs::metrics().find_counter("pera.cache.miss");
  const obs::Counter* hit = obs::metrics().find_counter("pera.cache.hit");
  ASSERT_NE(miss, nullptr);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(miss->value(), 1u);  // first packet misses...
  EXPECT_EQ(hit->value(), 3u);   // ...the rest hit

  const obs::Histogram* sign =
      obs::metrics().find_histogram("pera.sign.sim_ns");
  ASSERT_NE(sign, nullptr);
  EXPECT_EQ(sign->count(), 1u);  // signed once, then cached
  EXPECT_GT(sign->sum(), 0);

  const obs::Counter* bytes =
      obs::metrics().find_counter("pera.wire.bytes.Program");
  ASSERT_NE(bytes, nullptr);
  EXPECT_GT(bytes->value(), 0u);

  // The full dump contains both sections.
  const std::string json = obs::dump_json();
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"trace\""), std::string::npos);
  EXPECT_NE(json.find("pera.cache.hit"), std::string::npos);
  EXPECT_GT(obs::trace_stats().recorded, 0u);
}

// --- span recorder: one slot store for events and stages -------------------

// Restores every recorder toggle and setting a test changes.
class ObsRecorder : public ::testing::Test {
 protected:
  void SetUp() override { obs::reset(); }
  void TearDown() override {
    obs::set_enabled(false);
    obs::set_stages_enabled(false);
    obs::reset_stages();
    obs::set_trace_capacity(obs::kDefaultTraceCapacity);
  }
};

TEST_F(ObsRecorder, BothTogglesOffClaimNoSlotAndNoRing) {
  obs::set_enabled(false);
  obs::set_stages_enabled(false);
  const auto body = [] {
    PERA_OBS_EVENT(obs::SpanKind::kSign, "off");
    obs::event(obs::SpanKind::kSign, "off");
    { obs::ScopedSpan span(obs::SpanKind::kAppraise, "off"); }
    const obs::ScopedThread reg("off", obs::Stage::kIdle);
    obs::enter_stage(obs::Stage::kShardWork);
    const obs::ScopedStage merge(obs::Stage::kMerge);
  };
  const obs::TraceStats before = obs::trace_stats();
  std::thread(body).join();
  const obs::TraceStats after = obs::trace_stats();
  EXPECT_EQ(after.slots, before.slots);
  EXPECT_EQ(after.rings, before.rings);
  EXPECT_EQ(after.recorded, before.recorded);
  EXPECT_EQ(obs::profile_json().find("\"off\""), std::string::npos);

  // The same body records once either toggle is on.
  obs::set_stages_enabled(true);
  std::thread(body).join();
  EXPECT_NE(obs::profile_json().find("\"role\":\"off\""), std::string::npos);
  EXPECT_EQ(obs::trace_stats().recorded, before.recorded);
  obs::set_enabled(true);
  std::thread(body).join();
  EXPECT_EQ(obs::trace_stats().recorded, before.recorded + 3);
}

TEST_F(ObsRecorder, ThreadsKeepTheirNewestEventsAndExportMergesBySeq) {
  obs::set_enabled(true);
  obs::set_trace_capacity(4);
  obs::event(obs::SpanKind::kMeasure, "main", 0, 0);
  obs::event(obs::SpanKind::kMeasure, "main", 0, 1);
  std::thread([] {
    for (std::uint64_t i = 0; i < 6; ++i) {
      obs::event(obs::SpanKind::kSign, "worker", 0, i);
    }
  }).join();
  obs::event(obs::SpanKind::kMeasure, "main", 0, 2);

  // The worker's slot outlived it: its newest four events are kept.
  const obs::TraceStats stats = obs::trace_stats();
  EXPECT_EQ(stats.recorded, 9u);
  EXPECT_EQ(stats.events, 7u);
  EXPECT_EQ(stats.dropped, 2u);
  const std::vector<obs::SpanEvent> events = obs::trace_snapshot();
  ASSERT_EQ(events.size(), 7u);
  const std::vector<std::pair<std::string_view, std::uint64_t>> want = {
      {"main", 0},   {"main", 1},   {"worker", 2}, {"worker", 3},
      {"worker", 4}, {"worker", 5}, {"main", 2}};
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].name, want[i].first) << i;
    EXPECT_EQ(events[i].value, want[i].second) << i;
    if (i > 0) {
      EXPECT_GT(events[i].seq, events[i - 1].seq);
    }
  }
  EXPECT_EQ(events.front().seq, 0u);
  EXPECT_EQ(events.back().seq, 8u);
}

TEST_F(ObsRecorder, RecycledSlotsCountTheirEventsAsDropped) {
  obs::set_enabled(true);
  // More threads than slots, one after another: each exited thread's slot
  // retires, and the claimers recycle the ones that retired first.
  constexpr std::uint64_t kThreads = 80;
  for (std::uint64_t i = 0; i < kThreads; ++i) {
    std::thread([i] { obs::event(obs::SpanKind::kMeasure, "t", 0, i); })
        .join();
  }
  const obs::TraceStats stats = obs::trace_stats();
  EXPECT_EQ(stats.recorded, kThreads);
  EXPECT_EQ(stats.events + stats.dropped, stats.recorded);
  EXPECT_LT(stats.events, kThreads);  // some slots were recycled
  const std::vector<obs::SpanEvent> events = obs::trace_snapshot();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().value, kThreads - 1);  // the newest are kept
  EXPECT_NE(events.front().value, 0u);
}

TEST_F(ObsRecorder, EventAndStageResetsAreIndependent) {
  obs::set_enabled(true);
  obs::set_stages_enabled(true);
  obs::reset_stages();
  obs::thread_begin("both", obs::Stage::kShardWork);
  obs::event(obs::SpanKind::kMeasure, "before");
  obs::thread_end();

  obs::reset();  // clears events, keeps stage totals
  EXPECT_EQ(obs::trace_stats().recorded, 0u);
  EXPECT_GT(obs::stage_totals().window_ns, 0u);

  obs::event(obs::SpanKind::kMeasure, "after");
  obs::reset_stages();  // clears stage totals, keeps events
  EXPECT_EQ(obs::stage_totals().window_ns, 0u);
  ASSERT_EQ(obs::trace_snapshot().size(), 1u);
  EXPECT_EQ(obs::trace_snapshot().front().name, "after");
}

// Four threads record events and switch stages while a fifth exports; one
// recorder exits midway and its replacement recycles a retired slot. Run
// under ThreadSanitizer in CI; here it checks that no event goes
// unaccounted and that every export stays ordered.
TEST_F(ObsRecorder, ConcurrentRecordersStagesAndExport) {
  obs::set_enabled(true);
  obs::set_stages_enabled(true);
  obs::set_trace_capacity(64);
  // Retire a thread in every free slot, so the replacement must recycle.
  for (int i = 0; i < 64; ++i) {
    std::thread([] { obs::event(obs::SpanKind::kMeasure, "filler"); })
        .join();
  }
  obs::reset();

  const auto recorder = [](int id, std::uint64_t rounds) {
    const obs::ScopedThread reg("rec" + std::to_string(id),
                                obs::Stage::kIdle);
    for (std::uint64_t i = 0; i < rounds; ++i) {
      obs::enter_stage(i % 2 == 0 ? obs::Stage::kShardWork
                                  : obs::Stage::kReassembly);
      PERA_OBS_EVENT(obs::SpanKind::kMeasure, "rec", 0, i);
      obs::ScopedSpan span(obs::SpanKind::kSign, "span");
      span.set_value(i);
    }
  };
  std::atomic<bool> stop{false};
  std::thread exporter([&stop] {
    while (!stop.load()) {
      const std::vector<obs::SpanEvent> events = obs::trace_snapshot();
      for (std::size_t i = 1; i < events.size(); ++i) {
        ASSERT_LT(events[i - 1].seq, events[i].seq);
      }
      const obs::TraceStats stats = obs::trace_stats();
      EXPECT_EQ(stats.recorded, stats.events + stats.dropped);
      EXPECT_NE(obs::trace_json().find("\"events\":["), std::string::npos);
      EXPECT_NE(obs::profile_json().find("\"threads\":["), std::string::npos);
    }
  });
  constexpr std::uint64_t kRounds = 20000;
  std::vector<std::thread> recorders;
  for (int id = 0; id < 3; ++id) recorders.emplace_back(recorder, id, kRounds);
  std::thread(recorder, 3, kRounds / 8).join();  // exits midway...
  std::thread(recorder, 4, kRounds).join();      // ...and is replaced
  for (std::thread& t : recorders) t.join();
  stop = true;
  exporter.join();

  const obs::TraceStats stats = obs::trace_stats();
  EXPECT_EQ(stats.recorded, 2 * (4 * kRounds + kRounds / 8));
  EXPECT_EQ(stats.recorded, stats.events + stats.dropped);
  EXPECT_GT(obs::stage_totals().window_ns, 0u);
}

}  // namespace
