// Tests for the sharded multi-worker PERA pipeline: SPSC ring semantics,
// flow hashing, the seqlock epoch block, shard-count-invariant evidence
// verdicts, queue overflow/backpressure, and the epoch-invalidation race
// (the threaded tests are the TSan targets wired into scripts/check.sh).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <string_view>
#include <thread>

#include "evidence_oracle.h"
#include "obs/profiler.h"
#include "pipeline/pipeline.h"

namespace pera::pipeline {
namespace {

using dataplane::make_router;
using dataplane::make_tcp_packet;
using dataplane::PacketSpec;

crypto::Digest root_key() { return crypto::sha256("pipeline-root-key"); }

ProgramFactory router_factory() {
  return [] { return make_router(); };
}

nac::PolicyHeader make_policy_header(bool out_of_band, bool sign = true) {
  nac::HopInstruction inst;
  inst.detail = nac::mask_of(nac::EvidenceDetail::kProgram);
  inst.sign_evidence = sign;
  inst.wildcard = true;
  inst.out_of_band = out_of_band;
  nac::CompiledPolicy pol;
  pol.hops = {inst};
  pol.appraiser = "Appraiser";
  // sampling_log2 stays 0: per-shard sampler counters would otherwise make
  // attest/skip decisions depend on the shard count.
  return nac::make_header(pol, crypto::Nonce{crypto::sha256("n")}, true);
}

/// A packet stream spread over `flows` distinct 5-tuples, round-robin.
std::vector<dataplane::RawPacket> make_stream(std::size_t packets,
                                              std::size_t flows) {
  std::vector<dataplane::RawPacket> out;
  out.reserve(packets);
  for (std::size_t i = 0; i < packets; ++i) {
    PacketSpec spec;
    spec.sport = static_cast<std::uint16_t>(40000 + i % flows);
    spec.ip_src = 0x0a000100 + static_cast<std::uint32_t>(i % flows);
    out.push_back(make_tcp_packet(spec));
  }
  return out;
}

// Golden appraisal summaries (hex), pinned from a single-threaded
// reference run that first collected every shard's evidence and then
// appraised it flow by flow, at 1, 2, 4 and 8 shards (all equal). Every
// shard x appraiser x mode run below must reproduce them bit for bit.
// Named by make_stream(packets, flows) and composition mode, over an
// out-of-band make_policy_header() and the default PeraConfig unless
// noted.
//
// make_stream(64, 8), chained: out-of-band, in-band, and out-of-band
// with oob_batch_size 32 all fold the same signed content.
constexpr std::string_view kGolden64x8Chained =
    "2b0e127836de5f30ccb8c00606f849c26ae7012513745b7ca94be36806b8e8d2";
constexpr std::string_view kGolden96x12Chained =
    "79edcaaa828537a8aa1d6e38777e7364715f28fb59c2ded4f33a0c6afe35fcb0";
constexpr std::string_view kGolden32x4Chained =
    "076139131c3ba9b3937067f55863ac76e00475295a9e134500052e88ce504154";
constexpr std::string_view kGolden32x4Pointwise =
    "4fc6d20e988b2fdc613c1508dbf66e8535356f69b1306fde3755b3e96876b9c2";
constexpr std::string_view kGolden48x6Pointwise =
    "1d144dd6aa96df4f9fc90a55b66758ce5bd3abaa4fcf57cd93dcba0ff90aa79b";
constexpr std::string_view kGolden256x32Chained =
    "7b6379a22c86bf8149675d31ef82fd7514187c4f01137829a77053ee86951820";
constexpr std::string_view kGolden64x16Chained =
    "e7d1c27acdef52b145bc94bdc10d13559feac719782b90bbd630f81dac6f7397";
// make_stream(24, 4), chained: HMAC and XMSS signatures alike.
constexpr std::string_view kGolden24x4Chained =
    "bb6dc4e19f80ec5bc9ff8ce2d364cff3a6ce71c3990a3d3ee40e03b2f1eb954b";
// make_stream(n, min(n, 4)), chained, for n = 1, 2, 7, 13: unbatched and
// oob_batch_size 7 alike.
const std::map<std::size_t, std::string_view> kGoldenDrainChained = {
    {1, "8b3fff2f30f64e751b9b5cc0e5083ea03c0fc14d47eb6a564902ec8fc3996084"},
    {2, "a96de92b75e820054597e5ef4be477c354abd5e0850d39d052abd557fa1547ef"},
    {7, "d496d9d8722dc90648d8e73b441db04fa80b199316bfc5ea9daad1a0fe4e87e3"},
    {13, "177c2ab8f66aa453a8611c0751374ec996d6b33a8afe2b0b86c2e3658a5d0e5a"},
};

/// Run a full pipeline pass over `stream` — shards stream evidence into
/// the in-pipeline ParallelAppraiser (the threaded TSan target for
/// appraisal) — and return its verdicts.
struct RunResult {
  std::string summary;  // hex
  std::map<std::uint64_t, FlowVerdict> verdicts;
  std::uint64_t records = 0;
  PipelineReport report;
};

RunResult run_pipeline(std::size_t shards, std::size_t appraisers,
                       const std::vector<dataplane::RawPacket>& stream,
                       const nac::PolicyHeader& hdr,
                       ::pera::pera::PeraConfig pera_cfg = {},
                       nac::CompositionMode mode =
                           nac::CompositionMode::kChained,
                       crypto::SignatureScheme scheme =
                           crypto::SignatureScheme::kHmacDeviceKey) {
  PipelineOptions opt;
  opt.shards = shards;
  opt.appraisers = appraisers;
  opt.pera = pera_cfg;
  opt.drop_on_full = false;  // lossless: determinism tests need every packet
  opt.appraise_mode = mode;
  opt.scheme = scheme;
  PeraPipeline pipe("sw1", router_factory(), root_key(), opt);
  pipe.start();
  for (const dataplane::RawPacket& raw : stream) {
    (void)pipe.submit(raw, &hdr);
  }
  pipe.stop();

  RunResult r;
  r.verdicts = pipe.appraiser()->verdicts();
  r.summary = pipe.appraiser()->summary().hex();
  r.records = pipe.appraiser()->records();
  r.report = pipe.report();
  EXPECT_EQ(pipe.appraiser()->dropped(), 0u);
  return r;
}

// A per-packet pipeline fault must cost that packet, not the shard: the
// rewrite table's default writes tcp.dport, so every Ethernet-only frame
// faults. The mixed stream must finish, forward all TCP traffic, attest
// every packet and count each fault in report().
TEST(Pipeline, PipelineFaultDropsThePacketNotTheShard) {
  const ProgramFactory factory = [] {
    auto prog = std::make_shared<dataplane::DataplaneProgram>(
        "rewriter", "v1", dataplane::standard_parser());
    prog->add_action(dataplane::stdaction::forward());
    prog->add_action(dataplane::stdaction::set_field("tcp.dport"));
    prog->add_table("rewrite", {}).set_default("set_tcp.dport", {8080});
    prog->add_table("out", {}).set_default("forward", {2});
    return prog;
  };
  std::vector<dataplane::RawPacket> stream;
  std::size_t faulting = 0;
  for (const dataplane::RawPacket& tcp : make_stream(64, 8)) {
    stream.push_back(tcp);
    if (stream.size() % 4 == 0) {
      dataplane::RawPacket eth;
      eth.data = dataplane::pack_header(
          dataplane::stdhdr::ethernet(), {1, 2 + stream.size() % 3, 0x0806});
      stream.push_back(eth);
      ++faulting;
    }
  }
  const nac::PolicyHeader hdr = make_policy_header(/*out_of_band=*/true);
  PipelineOptions opt;
  opt.shards = 2;
  opt.appraisers = 1;
  opt.drop_on_full = false;
  PeraPipeline pipe("sw1", factory, root_key(), opt);
  pipe.start();
  for (const dataplane::RawPacket& raw : stream) (void)pipe.submit(raw, &hdr);
  pipe.stop();

  const PipelineReport rep = pipe.report();
  std::uint64_t forwarded = 0;
  for (const ShardReport& s : rep.shards) forwarded += s.forwarded;
  EXPECT_EQ(rep.processed(), stream.size());
  EXPECT_EQ(rep.pipeline_faults(), faulting);
  EXPECT_EQ(forwarded, stream.size() - faulting);
  EXPECT_EQ(pipe.appraiser()->records(), stream.size());
}

// A malformed control op is refused by each shard, which keeps running
// the program it has.
TEST(Pipeline, MalformedControlOpsAreRefusedNotFatal) {
  const nac::PolicyHeader hdr = make_policy_header(/*out_of_band=*/true);
  PipelineOptions opt;
  opt.shards = 2;
  opt.drop_on_full = false;
  PeraPipeline pipe("sw1", router_factory(), root_key(), opt);
  pipe.start();
  dataplane::TableEntry e;
  e.keys = {dataplane::KeyMatch::lpm(0x0a000200, 24)};
  e.action = "no_such_action";
  pipe.update_table("route", e);
  pipe.load_program([] {
    auto prog = make_router("v2");
    prog->table("route")->set_default("no_such_action");
    return prog;
  });
  const auto stream = make_stream(32, 8);
  for (const dataplane::RawPacket& raw : stream) (void)pipe.submit(raw, &hdr);
  pipe.stop();

  const PipelineReport rep = pipe.report();
  std::uint64_t forwarded = 0;
  for (const ShardReport& s : rep.shards) {
    forwarded += s.forwarded;
    // A shard syncs at its next packet; every shard that got one refused
    // both ops.
    EXPECT_EQ(s.rejected_ops, s.processed > 0 ? 2u : 0u);
  }
  EXPECT_EQ(forwarded, stream.size());
  EXPECT_EQ(rep.pipeline_faults(), 0u);
}

/// Test-side EvidenceSink: keeps every item it is handed, in order.
/// Single-threaded use only (the inline ShardWorker tests).
class CapturingSink final : public EvidenceSink {
 public:
  bool accept(std::uint32_t /*producer*/, EvidenceItem&& item) override {
    items.push_back(std::move(item));
    return true;
  }
  std::vector<EvidenceItem> items;
};

// --- SPSC queue -----------------------------------------------------------------

TEST(SpscQueue, FifoOrderAndCapacityRounding) {
  SpscQueue<int> q(3);  // rounds up to 4
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_TRUE(q.try_push(3));
  EXPECT_TRUE(q.try_push(4));
  EXPECT_FALSE(q.try_push(5));  // full
  int v = 0;
  EXPECT_TRUE(q.try_pop(v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(q.try_push(5));  // slot freed
  for (const int want : {2, 3, 4, 5}) {
    ASSERT_TRUE(q.try_pop(v));
    EXPECT_EQ(v, want);
  }
  EXPECT_FALSE(q.try_pop(v));
  EXPECT_TRUE(q.empty());
}

TEST(SpscQueue, FailedPushLeavesValueIntact) {
  SpscQueue<std::string> q(1);
  ASSERT_TRUE(q.try_push("a"));
  std::string keep = "survivor";
  EXPECT_FALSE(q.try_push(std::move(keep)));
  EXPECT_EQ(keep, "survivor");  // not moved-from on failure
}

TEST(SpscQueue, ConcurrentProducerConsumerDeliversEverything) {
  constexpr int kItems = 20000;
  SpscQueue<int> q(64);
  std::int64_t sum = 0;
  std::thread consumer([&] {
    int v = 0;
    int got = 0;
    while (got < kItems) {
      if (q.try_pop(v)) {
        sum += v;
        ++got;
      } else {
        std::this_thread::yield();
      }
    }
  });
  for (int i = 1; i <= kItems; ++i) {
    while (!q.try_push(std::move(i))) std::this_thread::yield();
  }
  consumer.join();
  EXPECT_EQ(sum, static_cast<std::int64_t>(kItems) * (kItems + 1) / 2);
}

// --- flow hashing ---------------------------------------------------------------

TEST(FlowHash, SameTupleSameHashDifferentTupleDiffers) {
  const dataplane::RawPacket a = make_tcp_packet({.sport = 40000});
  const dataplane::RawPacket b = make_tcp_packet({.sport = 40000});
  const dataplane::RawPacket c = make_tcp_packet({.sport = 40001});
  EXPECT_EQ(flow_hash(extract_flow_key(a)), flow_hash(extract_flow_key(b)));
  EXPECT_NE(flow_hash(extract_flow_key(a)), flow_hash(extract_flow_key(c)));
}

TEST(FlowHash, ExtractsTupleFromWire) {
  const FlowKey key = extract_flow_key(make_tcp_packet(
      {.ip_src = 0x0a000101, .ip_dst = 0x0a000202, .sport = 1234,
       .dport = 443}));
  EXPECT_TRUE(key.valid);
  EXPECT_EQ(key.src_ip, 0x0a000101u);
  EXPECT_EQ(key.dst_ip, 0x0a000202u);
  EXPECT_EQ(key.sport, 1234);
  EXPECT_EQ(key.dport, 443);
  EXPECT_EQ(key.proto, 6);
}

TEST(FlowHash, NonIpFramesStillHashDeterministically) {
  dataplane::RawPacket junk;
  junk.data = {0xde, 0xad, 0xbe, 0xef};
  const std::uint64_t h1 = flow_hash(extract_flow_key(junk));
  const std::uint64_t h2 = flow_hash(extract_flow_key(junk));
  EXPECT_EQ(h1, h2);
  EXPECT_NE(h1, 0u);
  EXPECT_LT(shard_of(junk, 4), 4u);
}

TEST(FlowHash, ShardOfCoversAllShardsAcrossFlows) {
  std::set<std::size_t> seen;
  for (std::uint16_t p = 0; p < 64; ++p) {
    seen.insert(shard_of(make_tcp_packet({.sport =
                             static_cast<std::uint16_t>(40000 + p)}),
                         4));
  }
  EXPECT_EQ(seen.size(), 4u);  // 64 flows should hit all 4 shards
  EXPECT_EQ(shard_of(make_tcp_packet({}), 1), 0u);
}

// --- epoch block ----------------------------------------------------------------

TEST(EpochBlock, VersionIsEvenAndMonotonic) {
  EpochBlock block;
  EXPECT_EQ(block.version(), 0u);
  ControlOp op;
  op.kind = ControlOp::Kind::kLoadProgram;
  op.factory = router_factory();
  block.publish(std::move(op));
  EXPECT_EQ(block.version(), 2u);
  EXPECT_EQ(block.op_count(), 1u);
}

TEST(EpochBlock, OpsSinceReplaysOnlyUnapplied) {
  EpochBlock block;
  for (int i = 0; i < 3; ++i) {
    ControlOp op;
    op.kind = ControlOp::Kind::kUpdateTable;
    op.table = "route";
    block.publish(std::move(op));
  }
  std::vector<ControlOp> ops;
  EXPECT_EQ(block.ops_since(1, ops), block.version());
  EXPECT_EQ(ops.size(), 2u);
}

// --- shard-count invariance (the tentpole property) -----------------------------

TEST(PipelineDeterminism, OutOfBandVerdictsInvariantAcrossShardCounts) {
  const std::vector<dataplane::RawPacket> stream = make_stream(96, 12);
  const nac::PolicyHeader hdr = make_policy_header(/*out_of_band=*/true);
  const RunResult one = run_pipeline(1, 1, stream, hdr);
  const RunResult two = run_pipeline(2, 1, stream, hdr);
  const RunResult four = run_pipeline(4, 1, stream, hdr);

  EXPECT_EQ(one.verdicts.size(), 12u);
  for (const auto& [flow, v] : one.verdicts) {
    EXPECT_TRUE(v.ok) << "flow " << flow;
    EXPECT_EQ(v.signature_failures, 0u);
  }
  // Bit-identical per-flow transcripts, summarized in one digest.
  EXPECT_EQ(one.summary, kGolden96x12Chained);
  EXPECT_EQ(two.summary, kGolden96x12Chained);
  EXPECT_EQ(four.summary, kGolden96x12Chained);
  EXPECT_EQ(one.report.processed(), 96u);
  EXPECT_EQ(four.report.processed(), 96u);
}

TEST(PipelineDeterminism, InBandVerdictsInvariantAcrossShardCounts) {
  const std::vector<dataplane::RawPacket> stream = make_stream(64, 8);
  const nac::PolicyHeader hdr = make_policy_header(/*out_of_band=*/false);
  const RunResult one = run_pipeline(1, 1, stream, hdr);
  const RunResult four = run_pipeline(4, 1, stream, hdr);
  EXPECT_EQ(one.verdicts.size(), 8u);
  EXPECT_EQ(one.summary, kGolden64x8Chained);
  EXPECT_EQ(four.summary, kGolden64x8Chained);
  for (const auto& [flow, v] : four.verdicts) {
    EXPECT_TRUE(v.ok) << "flow " << flow;
  }
}

TEST(PipelineDeterminism, BatchedSigningPreservesVerdicts) {
  // Merkle-batched deferred signing changes the signature scheme, not the
  // signed content — verdict transcripts must match the unbatched run.
  const std::vector<dataplane::RawPacket> stream = make_stream(64, 8);
  const nac::PolicyHeader hdr = make_policy_header(/*out_of_band=*/true);
  ::pera::pera::PeraConfig batched;
  batched.oob_batch_size = 32;
  const RunResult plain = run_pipeline(2, 1, stream, hdr);
  const RunResult merkle = run_pipeline(2, 1, stream, hdr, batched);
  ASSERT_EQ(plain.records, 64u);
  ASSERT_EQ(merkle.records, plain.records);
  EXPECT_EQ(plain.summary, kGolden64x8Chained);
  EXPECT_EQ(merkle.summary, kGolden64x8Chained);
}

TEST(PipelineDeterminism, PointwiseAndChainedTranscriptsDiffer) {
  const std::vector<dataplane::RawPacket> stream = make_stream(32, 4);
  const nac::PolicyHeader hdr = make_policy_header(/*out_of_band=*/true);
  const RunResult chained = run_pipeline(2, 1, stream, hdr, {},
                                         nac::CompositionMode::kChained);
  const RunResult pointwise = run_pipeline(2, 1, stream, hdr, {},
                                           nac::CompositionMode::kPointwise);
  EXPECT_NE(chained.summary, pointwise.summary);
  EXPECT_EQ(chained.summary, kGolden32x4Chained);
  EXPECT_EQ(pointwise.summary, kGolden32x4Pointwise);
  // ...but both modes agree the evidence verifies.
  for (const auto& [flow, v] : pointwise.verdicts) {
    EXPECT_TRUE(v.ok) << "flow " << flow;
  }
}

TEST(PipelineDeterminism, FlowsNeverSplitAcrossShards) {
  const std::vector<dataplane::RawPacket> stream = make_stream(64, 8);
  const nac::PolicyHeader hdr = make_policy_header(/*out_of_band=*/true);
  std::map<std::uint64_t, std::vector<dataplane::RawPacket>> by_flow;
  for (const dataplane::RawPacket& raw : stream) {
    by_flow[flow_hash(extract_flow_key(raw))].push_back(raw);
  }
  ASSERT_EQ(by_flow.size(), 8u);
  // One flow per run: the whole flow must land on exactly one shard,
  // the one shard_of_packet() names, and every shard must see it whole.
  for (const auto& [flow, packets] : by_flow) {
    PipelineOptions opt;
    opt.shards = 4;
    opt.drop_on_full = false;
    PeraPipeline pipe("sw1", router_factory(), root_key(), opt);
    const std::size_t home = pipe.shard_of_packet(packets.front());
    pipe.start();
    for (const dataplane::RawPacket& raw : packets) {
      (void)pipe.submit(raw, &hdr);
    }
    pipe.stop();
    const PipelineReport rep = pipe.report();
    for (std::size_t i = 0; i < pipe.shards(); ++i) {
      EXPECT_EQ(rep.shards[i].processed, i == home ? packets.size() : 0u)
          << "flow " << flow << " shard " << i;
    }
    const auto& verdicts = pipe.appraiser()->verdicts();
    ASSERT_EQ(verdicts.size(), 1u) << "flow " << flow;
    EXPECT_EQ(verdicts.begin()->second.records, packets.size());
    EXPECT_TRUE(verdicts.begin()->second.ok) << "flow " << flow;
  }
}

TEST(PipelineDeterminism, TamperedEvidenceFailsAppraisal) {
  // Two inline shards stream into a capturing sink; one flipped signature
  // byte must surface as exactly one signature failure.
  const std::vector<dataplane::RawPacket> stream = make_stream(8, 2);
  const nac::PolicyHeader hdr = make_policy_header(/*out_of_band=*/true);
  const std::string label = PipelineOptions{}.shard_key_label;
  const std::vector<crypto::Digest> keys =
      PeraPipeline::shard_keys(root_key(), label, 2);
  EpochBlock epochs;
  CapturingSink sink;
  std::vector<std::unique_ptr<ShardWorker>> workers;
  for (std::uint32_t i = 0; i < 2; ++i) {
    workers.push_back(std::make_unique<ShardWorker>(
        i, "sw1", router_factory(), keys[i], epochs, sink,
        ::pera::pera::PeraConfig{}, 16));
  }
  for (std::size_t seq = 0; seq < stream.size(); ++seq) {
    const dataplane::RawPacket& raw = stream[seq];
    workers[shard_of(raw, 2)]->process(PacketJob{
        raw, &hdr, flow_hash(extract_flow_key(raw)), seq, 0});
  }
  for (auto& w : workers) w->drain_deferred();

  ASSERT_EQ(sink.items.size(), stream.size());
  sink.items.front().evidence.back() ^= 0xff;  // flip a signature byte

  ParallelAppraiser appraiser(root_key(), label, 8);
  appraiser.start(workers.size());
  for (EvidenceItem& item : sink.items) {
    const std::uint32_t producer = item.shard;
    ASSERT_TRUE(appraiser.accept(producer, std::move(item)));
  }
  appraiser.finish();
  const auto& verdicts = appraiser.verdicts();
  EXPECT_EQ(verdicts.size(), 2u);
  std::size_t failures = 0;
  for (const auto& [flow, v] : verdicts) failures += v.signature_failures;
  EXPECT_EQ(failures, 1u);
  EXPECT_TRUE(std::any_of(verdicts.begin(), verdicts.end(),
                          [](const auto& kv) { return !kv.second.ok; }));
}

// --- queue overflow / backpressure ----------------------------------------------

TEST(PipelineBackpressure, DropOnFullCountsDrops) {
  PipelineOptions opt;
  opt.shards = 1;
  opt.queue_capacity = 8;
  opt.drop_on_full = true;
  PeraPipeline pipe("sw1", router_factory(), root_key(), opt);
  // Workers not started: the ring fills after 8 packets.
  const dataplane::RawPacket pkt = make_tcp_packet({});
  int accepted = 0;
  for (int i = 0; i < 20; ++i) {
    if (pipe.submit(pkt, nullptr)) ++accepted;
  }
  EXPECT_EQ(accepted, 8);
  pipe.start();
  pipe.stop();
  const PipelineReport rep = pipe.report();
  EXPECT_EQ(rep.submitted, 20u);
  EXPECT_EQ(rep.dropped, 12u);
  EXPECT_EQ(rep.processed(), 8u);
}

TEST(PipelineBackpressure, LosslessModeDeliversEverything) {
  PipelineOptions opt;
  opt.shards = 2;
  opt.queue_capacity = 8;  // tiny ring: the dispatcher must wait
  opt.drop_on_full = false;
  PeraPipeline pipe("sw1", router_factory(), root_key(), opt);
  pipe.start();
  const nac::PolicyHeader hdr = make_policy_header(true);
  for (const dataplane::RawPacket& raw : make_stream(400, 16)) {
    EXPECT_TRUE(pipe.submit(raw, &hdr));
  }
  pipe.stop();
  const PipelineReport rep = pipe.report();
  EXPECT_EQ(rep.dropped, 0u);
  EXPECT_EQ(rep.processed(), 400u);
}

// --- epoch invalidation ---------------------------------------------------------

TEST(PipelineEpoch, ControlOpsInvalidateShardCaches) {
  // Inline (no threads): one worker, deterministic interleaving.
  EpochBlock epochs;
  CapturingSink sink;
  ShardWorker worker(0, "sw1", router_factory(), crypto::sha256("k0"),
                     epochs, sink, {}, 16);
  const nac::PolicyHeader hdr = make_policy_header(/*out_of_band=*/true);
  const dataplane::RawPacket pkt = make_tcp_packet({});
  const std::uint64_t flow = flow_hash(extract_flow_key(pkt));

  worker.process(PacketJob{pkt, &hdr, flow, 0, 0});
  worker.process(PacketJob{pkt, &hdr, flow, 1, 0});
  EXPECT_EQ(worker.report().cache.hits, 1u);  // warm second packet

  ControlOp op;
  op.kind = ControlOp::Kind::kLoadProgram;
  op.factory = [] { return make_router("v2"); };
  epochs.publish(std::move(op));

  worker.process(PacketJob{pkt, &hdr, flow, 2, 0});
  const ShardReport rep = worker.report();
  EXPECT_EQ(rep.epoch_syncs, 1u);
  EXPECT_EQ(rep.cache.invalidations, 1u);  // program epoch moved
  EXPECT_EQ(rep.processed, 3u);
  EXPECT_EQ(sink.items.size(), 3u);  // one out-of-band record per packet
}

TEST(PipelineEpoch, ConcurrentControlOpsConvergeAcrossShards) {
  // The TSan race target: a control thread swaps programs and writes
  // tables while the dispatcher streams packets. After a final round of
  // packets (every shard must observe the last epoch), all shards agree
  // on the program digest.
  PipelineOptions opt;
  opt.shards = 4;
  opt.appraisers = 2;
  opt.drop_on_full = false;
  PeraPipeline pipe("sw1", router_factory(), root_key(), opt);
  pipe.start();
  const nac::PolicyHeader hdr = make_policy_header(/*out_of_band=*/true);
  const std::vector<dataplane::RawPacket> stream = make_stream(256, 32);

  std::thread control([&] {
    for (int i = 0; i < 8; ++i) {
      dataplane::TableEntry e;
      e.keys = {dataplane::KeyMatch::lpm(0xC0A80000 + i, 24)};
      e.action = "forward";
      e.action_params = {2};
      pipe.update_table("route", e);
      if (i % 3 == 2) {
        pipe.load_program([i] {
          return make_router("v" + std::to_string(i));
        });
      }
      std::this_thread::yield();
    }
  });
  for (const dataplane::RawPacket& raw : stream) (void)pipe.submit(raw, &hdr);
  control.join();
  // Final round after the last publish: make_stream(64, 32) revisits the
  // same 32 flows, which cover all four shards.
  for (const dataplane::RawPacket& raw : make_stream(64, 32)) {
    (void)pipe.submit(raw, &hdr);
  }
  pipe.stop();

  EXPECT_EQ(pipe.epochs().version() % 2, 0u);
  std::set<crypto::Digest> program_digests;
  for (std::size_t i = 0; i < pipe.shards(); ++i) {
    program_digests.insert(
        pipe.worker(i).pera_switch().dataplane().program().program_digest());
    EXPECT_GT(pipe.worker(i).report().epoch_syncs, 0u);
  }
  EXPECT_EQ(program_digests.size(), 1u);  // all shards converged

  // Evidence from a stream crossing epochs still verifies shard-by-shard.
  EXPECT_EQ(pipe.appraiser()->flows(), 32u);
  EXPECT_EQ(pipe.appraiser()->records(), 256u + 64u);
  for (const auto& [flow, v] : pipe.appraiser()->verdicts()) {
    EXPECT_TRUE(v.ok) << "flow " << flow;
  }
}

// --- parallel appraisal ---------------------------------------------------------

TEST(PipelineParallelAppraise, VerdictsBitIdenticalToSerialAcrossShardCounts) {
  // The equivalence property: the same trace pushed through 1/2/4/8
  // shards with concurrent per-shard appraiser workers must reproduce the
  // golden verdicts — same flows, same transcripts, same summary digest.
  const std::vector<dataplane::RawPacket> stream = make_stream(96, 12);
  const nac::PolicyHeader hdr = make_policy_header(/*out_of_band=*/true);
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    const RunResult par = run_pipeline(shards, shards, stream, hdr);
    EXPECT_EQ(par.summary, kGolden96x12Chained) << shards << " shards";
    EXPECT_EQ(par.verdicts.size(), 12u);
    EXPECT_EQ(par.records, 96u);
  }
}

TEST(PipelineParallelAppraise, AppraiserCountDoesNotChangeVerdicts) {
  // Worker count only partitions the flow space; the merged verdict map
  // must not depend on it.
  const std::vector<dataplane::RawPacket> stream = make_stream(64, 16);
  const nac::PolicyHeader hdr = make_policy_header(/*out_of_band=*/true);
  const RunResult one = run_pipeline(4, 1, stream, hdr);
  const RunResult three = run_pipeline(4, 3, stream, hdr);
  const RunResult eight = run_pipeline(4, 8, stream, hdr);
  EXPECT_EQ(one.summary, kGolden64x16Chained);
  EXPECT_EQ(three.summary, kGolden64x16Chained);
  EXPECT_EQ(eight.summary, kGolden64x16Chained);
  EXPECT_EQ(one.verdicts.size(), 16u);
}

TEST(PipelineParallelAppraise, ZeroAppraisersClampsToOne) {
  // appraisers = 0 selects no separate path: it means one worker, which
  // still yields the golden verdicts.
  PipelineOptions opt;
  opt.shards = 2;
  opt.appraisers = 0;
  opt.drop_on_full = false;
  PeraPipeline pipe("sw1", router_factory(), root_key(), opt);
  EXPECT_EQ(pipe.appraiser()->workers(), 1u);
  const nac::PolicyHeader hdr = make_policy_header(/*out_of_band=*/true);
  pipe.start();
  for (const dataplane::RawPacket& raw : make_stream(64, 16)) {
    (void)pipe.submit(raw, &hdr);
  }
  pipe.stop();
  EXPECT_EQ(pipe.appraiser()->flows(), 16u);
  EXPECT_EQ(pipe.appraiser()->records(), 64u);
  EXPECT_EQ(pipe.appraiser()->summary().hex(), kGolden64x16Chained);
}

TEST(PipelineParallelAppraise, PointwiseModeMatchesSerialToo) {
  const std::vector<dataplane::RawPacket> stream = make_stream(48, 6);
  const nac::PolicyHeader hdr = make_policy_header(/*out_of_band=*/true);
  for (const std::size_t appraisers : {1u, 2u}) {
    const RunResult par = run_pipeline(4, appraisers, stream, hdr, {},
                                       nac::CompositionMode::kPointwise);
    EXPECT_EQ(par.summary, kGolden48x6Pointwise) << appraisers;
  }
}

TEST(PipelineParallelAppraise, XmssSchemeVerifiesThroughMultiLaneEngine) {
  // kXmss signs shard evidence with WOTS chains (verification walks the
  // chains through the multi-lane SHA-256 engine). Verdicts must still
  // verify and stay shard-count invariant.
  const std::vector<dataplane::RawPacket> stream = make_stream(24, 4);
  const nac::PolicyHeader hdr = make_policy_header(/*out_of_band=*/true);
  const RunResult two =
      run_pipeline(2, 2, stream, hdr, {}, nac::CompositionMode::kChained,
                   crypto::SignatureScheme::kXmss);
  const RunResult four =
      run_pipeline(4, 4, stream, hdr, {}, nac::CompositionMode::kChained,
                   crypto::SignatureScheme::kXmss);
  EXPECT_EQ(two.verdicts.size(), 4u);
  for (const auto& [flow, v] : two.verdicts) {
    EXPECT_TRUE(v.ok) << "flow " << flow;
    EXPECT_EQ(v.signature_failures, 0u);
  }
  EXPECT_EQ(two.summary, kGolden24x4Chained);
  EXPECT_EQ(four.summary, kGolden24x4Chained);

  // The HMAC run folds the same signed content, so transcripts (which
  // cover content + outcome, not signature bytes) must match it as well.
  const RunResult hmac = run_pipeline(2, 2, stream, hdr);
  EXPECT_EQ(hmac.summary, kGolden24x4Chained);
}

// --- end-of-stream drain order --------------------------------------------------

TEST(PipelineDrainOrder, FinalBatchVerdictsSurviveTinyStreams) {
  // Regression: with an evidence batcher configured, the last (partial)
  // batch only surfaces at flush_pending(). The defined drain order —
  // ring dry, then batcher flush, both on the worker thread, then
  // appraiser finish — must deliver those final-batch verdicts at any
  // batch size and packet count, including streams smaller than one
  // batch.
  const nac::PolicyHeader hdr = make_policy_header(/*out_of_band=*/true);
  for (const std::size_t batch : {1u, 7u}) {
    ::pera::pera::PeraConfig cfg;
    cfg.oob_batch_size = batch;
    for (const auto& [packets, golden] : kGoldenDrainChained) {
      const std::vector<dataplane::RawPacket> stream =
          make_stream(packets, std::min<std::size_t>(packets, 4));
      const RunResult par = run_pipeline(8, 8, stream, hdr, cfg);
      EXPECT_EQ(par.records, packets)
          << "batch " << batch << " packets " << packets
          << ": final-batch evidence dropped";
      EXPECT_EQ(par.summary, golden)
          << "batch " << batch << " packets " << packets;
    }
  }
}

// --- buffer pool ----------------------------------------------------------------

TEST(PipelinePool, RecycleRingReusesBuffersUnderBackpressure) {
  // With a tiny ring the dispatcher outpaces the worker, waits, and by
  // then spent buffers are available for capacity reuse.
  PipelineOptions opt;
  opt.shards = 1;
  opt.queue_capacity = 8;
  opt.drop_on_full = false;
  opt.appraisers = 1;
  PeraPipeline pipe("sw1", router_factory(), root_key(), opt);
  pipe.start();
  const nac::PolicyHeader hdr = make_policy_header(/*out_of_band=*/true);
  for (const dataplane::RawPacket& raw : make_stream(300, 8)) {
    EXPECT_TRUE(pipe.submit(raw, &hdr));
  }
  pipe.stop();
  const PipelineReport rep = pipe.report();
  EXPECT_EQ(rep.processed(), 300u);
  EXPECT_GT(rep.pool_reused, 0u);
  EXPECT_EQ(rep.pool_reused + rep.pool_fresh, 300u);
  EXPECT_EQ(pipe.appraiser()->flows(), 8u);
}

// --- stage profiler -------------------------------------------------------------

TEST(PipelineProfiler, AttributesThreadTimeToStages) {
  namespace prof = obs::profiler;
  prof::set_enabled(true);
  prof::reset();
  {
    const prof::ScopedThread reg("test", prof::Stage::kIdle);
    prof::enter(prof::Stage::kShardWork);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      const prof::ScopedStage verify(prof::Stage::kWotsVerify);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }  // restores kShardWork
    prof::enter(prof::Stage::kMerge);
  }
  const prof::StageTotals t = prof::totals();
  const auto ns_of = [&t](prof::Stage s) {
    return t.wall_ns[static_cast<std::size_t>(s)];
  };
  EXPECT_GE(ns_of(prof::Stage::kShardWork), 2'000'000u);
  EXPECT_GE(ns_of(prof::Stage::kWotsVerify), 1'000'000u);
  EXPECT_GT(t.window_ns, 0u);
  // The invariant the bench gate relies on: a registered thread is always
  // inside exactly one stage, so the stage sums cover its whole window.
  EXPECT_GE(t.accounted_share(), 0.95);
  EXPECT_LE(t.accounted_ns(), t.window_ns + 1'000'000u);  // clock slop

  const std::string json = prof::to_json();
  for (const char* key :
       {"dispatch", "ring_transit", "shard_work", "reassembly",
        "wots_verify", "merge", "idle", "accounted_share"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_NE(json.find("\"role\":\"test\""), std::string::npos);

  prof::reset();
  EXPECT_EQ(prof::totals().window_ns, 0u);
  prof::set_enabled(false);
}

TEST(PipelineProfiler, DisabledProfilerRecordsNothing) {
  namespace prof = obs::profiler;
  prof::set_enabled(false);
  prof::reset();
  {
    const prof::ScopedThread reg("ghost", prof::Stage::kIdle);
    prof::enter(prof::Stage::kShardWork);  // all no-ops while disabled
  }
  EXPECT_EQ(prof::totals().window_ns, 0u);
  EXPECT_EQ(prof::totals().accounted_share(), 1.0);
}

TEST(PipelineProfiler, ResetInvalidatesLiveThreadCursors) {
  namespace prof = obs::profiler;
  prof::set_enabled(true);
  prof::reset();
  prof::thread_begin("stale", prof::Stage::kIdle);
  prof::reset();  // bumps the generation: the cursor must go quiet
  prof::enter(prof::Stage::kShardWork);
  prof::thread_end();
  EXPECT_EQ(prof::totals().window_ns, 0u);
  prof::set_enabled(false);
}

// --- report ---------------------------------------------------------------------

TEST(PipelineReporting, SimThroughputScalesWithShards) {
  // The simulated clock is the methodology-level throughput metric: the
  // dispatcher is the serial fraction, shards process in parallel.
  const std::vector<dataplane::RawPacket> stream = make_stream(256, 32);
  const nac::PolicyHeader hdr = make_policy_header(/*out_of_band=*/true);
  const RunResult one = run_pipeline(1, 1, stream, hdr);
  const RunResult four = run_pipeline(4, 1, stream, hdr);
  EXPECT_EQ(one.summary, kGolden256x32Chained);
  EXPECT_EQ(four.summary, kGolden256x32Chained);
  EXPECT_GT(one.report.sim_packets_per_sec, 0.0);
  EXPECT_GT(four.report.sim_packets_per_sec,
            2.0 * one.report.sim_packets_per_sec);
  EXPECT_GE(one.report.latency_p99,
            one.report.latency_p50);
}


// --- byte-level appraisal against the tree-based oracle ---------------------

constexpr unsigned kOracleXmssHeight = 6;

/// Evidence content of one of five shapes, kEmpty among them.
copland::EvidencePtr random_content(std::mt19937_64& rng) {
  const crypto::Digest v = crypto::sha256("content-" + std::to_string(rng()));
  switch (rng() % 5) {
    case 0:
      return copland::Evidence::measurement("attest", "sw1", "Program", v,
                                            "program digest");
    case 1:
      return copland::Evidence::nonce_ev(crypto::Nonce{v});
    case 2:
      return copland::Evidence::seq(
          copland::Evidence::measurement("attest", "sw1", "Tables", v, ""),
          copland::Evidence::nonce_ev(crypto::Nonce{v}));
    case 3:
      return copland::Evidence::hashed("sw1", v);
    default:
      return copland::Evidence::empty();
  }
}

/// A seeded mix of evidence records over 12 flows and 4 shards: direct
/// signatures under `scheme`, batched (Merkle-proof) signatures, unsigned
/// records, and, except in every fourth flow, signatures by an
/// unprovisioned key, undecodable and tampered records; kEmpty content
/// at the head of every third flow and at random in the middle; and
/// records of different shards sharing a sequence number.
std::vector<EvidenceItem> mixed_records(crypto::SignatureScheme scheme,
                                        std::uint64_t seed) {
  const std::vector<crypto::Digest> keys =
      PeraPipeline::shard_keys(root_key(), PipelineOptions{}.shard_key_label, 4);
  std::vector<std::unique_ptr<crypto::Signer>> signers;
  for (const crypto::Digest& k : keys) {
    if (scheme == crypto::SignatureScheme::kXmss) {
      signers.push_back(
          std::make_unique<crypto::XmssSigner>(k, kOracleXmssHeight));
    } else {
      signers.push_back(std::make_unique<crypto::HmacSigner>(k));
    }
  }
  crypto::HmacSigner rogue(crypto::sha256("unprovisioned"));
  std::mt19937_64 rng(seed);
  std::vector<EvidenceItem> items;
  std::uint64_t seq = 0;
  for (std::uint64_t flow = 0; flow < 12; ++flow) {
    for (std::size_t k = 0; k < 10; ++k) {
      EvidenceItem item;
      item.flow = flow;
      if (k == 0 || rng() % 4 != 0) ++seq;  // else: same seq, other shard
      item.seq = seq;
      item.shard = static_cast<std::uint32_t>(rng() % 4);
      crypto::Signer& signer = *signers[item.shard];
      const copland::EvidencePtr content =
          k == 0 && flow % 3 == 0 ? copland::Evidence::empty()
                                  : random_content(rng);
      const crypto::Digest msg = copland::digest(content);
      const auto signed_by = [&](crypto::Signature sig) {
        return copland::encode(
            copland::Evidence::signature("sw1", content, std::move(sig)));
      };
      const std::uint64_t pick = rng() % (flow % 4 == 3 ? 75 : 100);
      if (pick < 45) {
        item.evidence = signed_by(signer.sign(msg));
      } else if (pick < 60) {
        ::pera::pera::EvidenceBatcher batcher(signer, 4);
        const std::size_t slot = rng() % 3;
        for (std::size_t i = 0; i < 3; ++i) {
          (void)batcher.add(i == slot ? msg : crypto::sha256(std::to_string(i)));
        }
        item.evidence = signed_by(batcher.flush_wrapped()[slot]);
      } else if (pick < 75) {
        item.evidence = copland::encode(content);
      } else if (pick < 82) {
        item.evidence = signed_by(rogue.sign(msg));
      } else if (pick < 90) {
        item.evidence = signed_by(signer.sign(msg));
        item.evidence.resize(rng() % item.evidence.size());  // truncated
      } else {
        item.evidence = signed_by(signer.sign(msg));
        item.evidence[rng() % item.evidence.size()] ^=
            static_cast<std::uint8_t>(1 + rng() % 255);
      }
      items.push_back(std::move(item));
    }
  }
  return items;
}

TEST(PipelineAppraiseOracle, ByteAppraisalMatchesTreeOracle) {
  for (const crypto::SignatureScheme scheme :
       {crypto::SignatureScheme::kHmacDeviceKey,
        crypto::SignatureScheme::kXmss}) {
    const VerifierSet verifiers(root_key(), PipelineOptions{}.shard_key_label,
                                4, scheme, kOracleXmssHeight);
    std::map<std::uint64_t, std::vector<AppraisedRecord>> got;
    std::map<std::uint64_t, std::vector<oracle::TreeRecord>> want;
    std::size_t undecoded = 0;
    std::size_t bad_sig = 0;
    for (const EvidenceItem& item : mixed_records(scheme, 0x0DAC1E)) {
      AppraisedRecord rec = appraise_record(item, verifiers);
      oracle::TreeRecord ref = oracle::appraise_record(item, verifiers);
      ASSERT_EQ(rec.decoded, ref.decoded) << "seq " << item.seq;
      ASSERT_EQ(rec.sig_ok, ref.sig_ok) << "seq " << item.seq;
      if (ref.decoded) {
        EXPECT_EQ(rec.content.bytes, copland::encode(ref.content));
        EXPECT_EQ(rec.content_digest, copland::digest(ref.content));
        bad_sig += ref.sig_ok ? 0 : 1;
      } else {
        EXPECT_FALSE(rec.content);
        ++undecoded;
      }
      got[item.flow].push_back(std::move(rec));
      want[item.flow].push_back(std::move(ref));
    }
    EXPECT_GT(undecoded, 0u);
    EXPECT_GT(bad_sig, 0u);

    std::size_t ok_flows = 0;
    for (const nac::CompositionMode mode :
         {nac::CompositionMode::kChained, nac::CompositionMode::kPointwise}) {
      for (const auto& [flow, records] : got) {
        std::vector<AppraisedRecord> mine = records;
        std::vector<oracle::TreeRecord> theirs = want[flow];
        const FlowVerdict v = fold_flow(flow, mine, mode);
        const FlowVerdict r = oracle::fold_flow(flow, theirs, mode);
        EXPECT_EQ(v.flow, r.flow);
        EXPECT_EQ(v.records, r.records);
        EXPECT_EQ(v.signature_failures, r.signature_failures);
        EXPECT_EQ(v.ok, r.ok);
        EXPECT_EQ(v.transcript, r.transcript)
            << "flow " << flow << " mode " << static_cast<int>(mode);
        ok_flows += v.ok ? 1 : 0;
      }
    }
    EXPECT_GT(ok_flows, 0u);
    EXPECT_LT(ok_flows, 2 * got.size());
  }
}

TEST(PipelineAppraiseOracle, EmptyContentAtTheHeadDropsOutOfTheChain) {
  // Leading kEmpty content drops out of the chain (Empty + x = x), later
  // kEmpty content stays in it, and a flow of kEmpty content alone folds
  // to the Empty chain. Undecodable records never join it.
  const VerifierSet verifiers(root_key(), PipelineOptions{}.shard_key_label, 1);
  const crypto::Bytes empty = copland::encode(copland::Evidence::empty());
  const crypto::Bytes nonce = copland::encode(
      copland::Evidence::nonce_ev(crypto::Nonce{crypto::sha256("x")}));
  const crypto::Bytes junk = {0xff, 0x00};
  const std::vector<std::vector<crypto::Bytes>> flows = {
      {empty},          {empty, empty},        {empty, nonce},
      {nonce, empty},   {junk, empty, nonce},  {empty, junk, empty, nonce},
      {junk},           {},                    {nonce, junk, empty, nonce},
  };
  for (std::size_t f = 0; f < flows.size(); ++f) {
    std::vector<AppraisedRecord> mine;
    std::vector<oracle::TreeRecord> theirs;
    for (std::size_t i = 0; i < flows[f].size(); ++i) {
      const EvidenceItem item{f, i, 0, flows[f][i], {}};
      mine.push_back(appraise_record(item, verifiers));
      theirs.push_back(oracle::appraise_record(item, verifiers));
    }
    const FlowVerdict v = fold_flow(f, mine, nac::CompositionMode::kChained);
    const FlowVerdict r =
        oracle::fold_flow(f, theirs, nac::CompositionMode::kChained);
    EXPECT_EQ(v.transcript, r.transcript) << "flow " << f;
    EXPECT_EQ(v.ok, r.ok) << "flow " << f;
  }
}

TEST(PipelineAppraiseOracle, LongChainedFlowFoldsOnADefaultStackThread) {
  const auto record = [](std::uint64_t i) {
    crypto::Nonce n{};
    std::memcpy(n.value.v.data(), &i, sizeof i);
    EvidenceItem item;
    item.seq = i;
    item.evidence = copland::encode(copland::Evidence::nonce_ev(n));
    return item;
  };
  const VerifierSet verifiers(root_key(), PipelineOptions{}.shard_key_label, 1);
  for (const std::size_t n : {1, 2, 3, 64, 1000}) {
    std::vector<AppraisedRecord> mine;
    std::vector<oracle::TreeRecord> theirs;
    for (std::uint64_t i = n; i-- > 0;) {
      mine.push_back(appraise_record(record(i), verifiers));
      theirs.push_back(oracle::appraise_record(record(i), verifiers));
    }
    EXPECT_EQ(fold_flow(1, mine, nac::CompositionMode::kChained).transcript,
              oracle::fold_flow(1, theirs, nac::CompositionMode::kChained)
                  .transcript)
        << n << " records";
  }

  // A tree fold of this flow recurses once per record and overflows a
  // default thread stack; the byte fold must not.
  constexpr std::size_t kRecords = 300000;
  std::vector<AppraisedRecord> records;
  records.reserve(kRecords);
  for (std::uint64_t i = kRecords; i-- > 0;) {
    records.push_back(appraise_record(record(i), verifiers));
  }
  FlowVerdict v;
  std::thread folder(
      [&] { v = fold_flow(2, records, nac::CompositionMode::kChained); });
  folder.join();
  EXPECT_EQ(v.records, kRecords);
  EXPECT_TRUE(v.ok);
  EXPECT_EQ(v.signature_failures, 0u);
}

}  // namespace
}  // namespace pera::pipeline
