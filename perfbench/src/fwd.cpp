// fwd_cached and fwd_fresh_churn: attested forwarding through the sharded
// PERA pipeline (1 shard, 2 appraiser workers, the benchmark thread as the
// dispatcher: 4 threads), at the two ends of the paper's Fig. 4 design
// space.
//
// A pass builds a fresh pipeline (timed as set-up), pushes the seeded
// packet stream through it with lossless backpressure, and stops it
// (drain + merged verdicts). Every pass checks its own outputs; the
// traced run also replays one pass serially, layer by layer, through the
// same public entry points the shard and appraiser use, and requires the
// replay's flow verdicts to equal the pipelined ones.
#include <algorithm>
#include <random>
#include <set>

#include "common.h"
#include "copland/evidence.h"
#include "dataplane/builder.h"
#include "nac/header.h"
#include "pipeline/affinity.h"
#include "pipeline/appraiser.h"
#include "pipeline/pipeline.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace pera;
using pipeline::FlowVerdict;
using pipeline::PeraPipeline;
using Verdicts = std::map<std::uint64_t, FlowVerdict>;

constexpr const char* kSwitchName = "sw1";
constexpr const char* kKeyLabel = "pera.pipeline.shard";

struct Spec {
  bool churn = false;
  std::size_t packets = 0;   // per pass
  std::size_t flows = 1024;
  std::size_t payload = 0;   // TCP payload bytes
  std::size_t nonce_interval = 1024;  // packets per attestation round
  std::size_t update_interval = 0;    // packets per ACL insert (churn)
  std::size_t base_acl = 0;           // ACL entries installed at set-up
  nac::DetailMask detail = 0;
};

Spec spec_for(const std::string& workload, bool tiny) {
  Spec s;
  if (workload == "fwd_cached") {
    // Minimum-size frames (60 bytes, a 64-byte Ethernet frame without its
    // FCS): per-packet cost is all
    // dataplane and dispatch; signed Program|Tables evidence is served
    // from the cache except once per attestation round.
    s.packets = tiny ? 4096 : 32768;
    s.payload = 14;
    s.detail = nac::EvidenceDetail::kProgram | nac::EvidenceDetail::kTables;
  } else {
    // MTU-size frames with per-packet Packet|Tables evidence: every packet
    // is hashed, HMAC-signed and verified, and ACL inserts keep the
    // tables epoch moving. 96 entries at set-up, one insert per 2048
    // packets: a pass grows the ACL by about 7%. (The ternary ACL is a
    // linear scan, so a much larger table would make the dataplane, not
    // the evidence path, the dominant cost.)
    s.churn = true;
    s.packets = tiny ? 4096 : 16384;
    s.payload = 1468;  // 1514-byte frames: a 1500-byte IP MTU
    s.update_interval = 2048;
    s.base_acl = 96;
    s.detail = nac::EvidenceDetail::kPacket | nac::EvidenceDetail::kTables;
  }
  if (tiny) s.flows = 64;
  return s;
}

// A deny entry for a source in 172.16.0.0/12: the generated traffic comes
// from 10.0.0.0/8, so these entries grow the table without changing any
// forwarding decision.
dataplane::TableEntry deny_entry(std::mt19937_64& rng) {
  dataplane::TableEntry e;
  const std::uint64_t src = 0xac100000ULL | (rng() & 0x000fffffULL);
  e.keys = {dataplane::KeyMatch::ternary(src, 0xffffffff),
            dataplane::KeyMatch::wildcard(),
            dataplane::KeyMatch::ternary(rng() % 1024 + 1, 0xffff)};
  e.priority = 20;
  e.action = "drop";
  return e;
}

struct Inputs {
  std::vector<dataplane::RawPacket> stream;
  std::vector<std::uint64_t> flow_of;  // dispatcher flow hash per packet
  std::map<std::uint64_t, std::size_t> packets_per_flow;
  std::vector<nac::PolicyHeader> headers;  // one per attestation round
  std::vector<dataplane::TableEntry> updates;  // inserted during a pass
  pipeline::ProgramFactory factory;
  crypto::Digest root_key{};
};

Inputs make_inputs(const Spec& spec, std::uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + (spec.churn ? 2 : 1));
  Inputs in;
  in.root_key = crypto::sha256("perfbench-root-" + std::to_string(seed));

  // Flows are drawn so that each of the two appraiser workers owns half
  // of them (a worker owns the flows whose hash has its top bit), and
  // every flow gets the same number of packets in a seeded order: the
  // seed changes the addresses and the interleaving, not the load shape.
  std::vector<dataplane::RawPacket> flow_packets;
  std::vector<std::uint64_t> flow_hashes;
  std::set<std::uint64_t> seen;
  std::size_t per_half[2] = {0, 0};
  while (flow_packets.size() < spec.flows) {
    dataplane::PacketSpec p;
    p.ip_src = 0x0a000000U | static_cast<std::uint32_t>(rng() & 0x00ffffffU);
    p.ip_dst = 0x0a000000U |
               static_cast<std::uint32_t>((rng() % 8 + 1) << 8) |
               static_cast<std::uint32_t>(rng() % 254 + 1);
    p.sport = static_cast<std::uint16_t>(1024 + rng() % 64000);
    p.dport = 443;
    p.payload_len = spec.payload;
    dataplane::RawPacket raw = dataplane::make_tcp_packet(p);
    const std::uint64_t h = pipeline::flow_hash(pipeline::extract_flow_key(raw));
    std::size_t& half = per_half[h >> 63];
    if (half == spec.flows / 2 || !seen.insert(h).second) continue;
    ++half;
    flow_packets.push_back(std::move(raw));
    flow_hashes.push_back(h);
  }
  std::vector<std::size_t> order(spec.packets);
  for (std::size_t i = 0; i < spec.packets; ++i) order[i] = i % spec.flows;
  std::shuffle(order.begin(), order.end(), rng);
  in.stream.reserve(spec.packets);
  for (const std::size_t f : order) {
    in.stream.push_back(flow_packets[f]);
    in.flow_of.push_back(flow_hashes[f]);
    ++in.packets_per_flow[flow_hashes[f]];
  }

  nac::HopInstruction inst;
  inst.detail = spec.detail;
  inst.sign_evidence = true;
  inst.wildcard = true;
  inst.out_of_band = true;
  nac::CompiledPolicy pol;
  pol.hops = {inst};
  pol.appraiser = "Appraiser";
  const std::size_t rounds =
      (spec.packets + spec.nonce_interval - 1) / spec.nonce_interval;
  for (std::size_t r = 0; r < rounds; ++r) {
    const crypto::Nonce nonce{crypto::sha256(
        "perfbench-nonce-" + std::to_string(seed) + "-" + std::to_string(r))};
    in.headers.push_back(nac::make_header(pol, nonce, true));
  }

  std::vector<dataplane::TableEntry> base;
  for (std::size_t i = 0; i < spec.base_acl; ++i) base.push_back(deny_entry(rng));
  if (spec.churn) {
    for (std::size_t i = spec.update_interval; i < spec.packets;
         i += spec.update_interval) {
      in.updates.push_back(deny_entry(rng));
    }
    in.factory = [base] {
      auto prog = dataplane::make_firewall();
      dataplane::Table* acl = prog->table("acl");
      for (const dataplane::TableEntry& e : base) acl->add_entry(e);
      return prog;
    };
  } else {
    in.factory = [] { return dataplane::make_router(); };
  }
  return in;
}

pipeline::PipelineOptions pipeline_options() {
  pipeline::PipelineOptions opt;
  opt.shards = 1;
  opt.appraisers = 2;
  opt.queue_capacity = 4096;
  opt.drop_on_full = false;  // lossless backpressure
  opt.pera.cache_enabled = true;
  opt.pera.oob_batch_size = 1;
  opt.shard_key_label = kKeyLabel;
  // Shard on core 0, appraisers on cores 1 and 2; run_fwd puts the
  // dispatcher on core 3. Without pinning, thread migrations between
  // passes add run-to-run spread.
  opt.pin_cores = true;
  return opt;
}

// Digest of what must be identical across passes. Per-packet Packet|Tables
// evidence also carries the tables digest each packet saw, and a pipeline
// applies a table update at the shard's next packet after publication —
// a point that depends on thread timing — so under churn only the
// per-flow counts and outcomes are pass-invariant, not the transcripts.
crypto::Digest verdict_digest(const Verdicts& v, bool with_transcript) {
  crypto::Sha256 h;
  for (const auto& [flow, fv] : v) {
    crypto::Bytes b;
    crypto::append_u64(b, flow);
    crypto::append_u64(b, fv.records);
    crypto::append_u64(b, fv.signature_failures);
    b.push_back(fv.ok ? 1 : 0);
    h.update(crypto::BytesView{b.data(), b.size()});
    if (with_transcript) {
      h.update(crypto::BytesView{fv.transcript.v.data(), fv.transcript.v.size()});
    }
  }
  return h.finish();
}

struct Pass {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double drain_s = 0.0;
  pipeline::PipelineReport report;
  Verdicts verdicts;
  std::uint64_t appraised = 0;
  std::uint64_t appraiser_dropped = 0;
};

Pass run_pass(const Spec& spec, const Inputs& in, Tracer* tr) {
  Pass p;
  const double s0 = wall_s();
  PeraPipeline pipe(kSwitchName, in.factory, in.root_key, pipeline_options());
  pipe.start();
  const double t0 = wall_s();
  p.setup_s = t0 - s0;
  const double c0 = cpu_s();
  std::size_t next_update = 0;
  for (std::size_t i = 0; i < in.stream.size(); ++i) {
    if (spec.churn && i > 0 && i % spec.update_interval == 0) {
      pipe.update_table("acl", in.updates[next_update++]);
    }
    const Scope s(tr, "pipeline.submit");
    (void)pipe.submit(in.stream[i], &in.headers[i / spec.nonce_interval]);
  }
  const double d0 = wall_s();
  pipe.stop();
  const double t1 = wall_s();
  p.cpu_s = cpu_s() - c0;
  p.wall_s = t1 - t0;
  p.drain_s = t1 - d0;
  p.report = pipe.report();
  p.verdicts = pipe.appraiser()->verdicts();
  p.appraised = pipe.appraiser()->records();
  p.appraiser_dropped = pipe.appraiser()->dropped();
  return p;
}

// Output checks of one pass; returns the packets that failed.
std::uint64_t check_pass(const Pass& p, const Inputs& in, Report& rep) {
  const std::uint64_t n = in.stream.size();
  std::uint64_t bad = 0;
  std::uint64_t forwarded = 0;
  for (const pipeline::ShardReport& s : p.report.shards) forwarded += s.forwarded;
  if (p.report.processed() != n || p.report.dropped != 0 || forwarded != n) {
    const std::uint64_t lost = n - std::min<std::uint64_t>(forwarded, n);
    rep.fail(std::max<std::uint64_t>(lost, 1),
             "pass: processed " + std::to_string(p.report.processed()) +
                 ", forwarded " + std::to_string(forwarded) + ", dropped " +
                 std::to_string(p.report.dropped) + " of " + std::to_string(n));
    bad += std::max<std::uint64_t>(lost, 1);
  }
  if (p.appraised != n || p.appraiser_dropped != 0) {
    rep.fail(1, "pass: appraised " + std::to_string(p.appraised) + " of " +
                    std::to_string(n) + " records");
    ++bad;
  }
  if (p.verdicts.size() != in.packets_per_flow.size()) {
    rep.fail(1, "pass: " + std::to_string(p.verdicts.size()) +
                    " flow verdicts for " +
                    std::to_string(in.packets_per_flow.size()) + " flows");
    ++bad;
  }
  for (const auto& [flow, expect] : in.packets_per_flow) {
    const auto it = p.verdicts.find(flow);
    if (it == p.verdicts.end() || !it->second.ok ||
        it->second.signature_failures != 0 || it->second.records != expect) {
      rep.fail(expect, "pass: flow " + std::to_string(flow) + " verdict failed");
      bad += expect;
    }
  }
  return bad;
}

struct ReplayResult {
  Verdicts verdicts;
  std::uint64_t evidence_bytes = 0;
  std::uint64_t signs = 0;
  std::uint64_t not_forwarded = 0;
  std::vector<crypto::Bytes> sample;  // encoded records for the probes
};

// The serial ladder: one pass of the same stream through the same public
// entry points a shard (PisaSwitch stages, EvidenceEngine::create,
// copland::encode) and an appraiser worker (appraise_record, fold_flow)
// use, with a span around each call.
ReplayResult replay(const Spec& spec, const Inputs& in, Tracer* tr,
                    Inject inject) {
  ReplayResult out;
  const std::vector<crypto::Digest> keys =
      PeraPipeline::shard_keys(in.root_key, kKeyLabel, 1);
  crypto::HmacSigner device(keys[0]);
  TracingSigner signer(device, tr);
  const pipeline::PipelineOptions popt = pipeline_options();
  ::pera::pera::PeraSwitch sw(kSwitchName, in.factory(), signer, popt.pera);
  const pipeline::VerifierSet verifiers(in.root_key, kKeyLabel, 1);

  std::map<std::uint64_t, std::vector<pipeline::AppraisedRecord>> buckets;
  std::size_t next_update = 0;
  for (std::size_t i = 0; i < in.stream.size(); ++i) {
    const dataplane::RawPacket& raw = in.stream[i];
    const nac::PolicyHeader& hdr = in.headers[i / spec.nonce_interval];
    const Scope op(tr, "op");
    if (spec.churn && i > 0 && i % spec.update_interval == 0) {
      {
        const Scope s(tr, "dataplane.table_update");
        sw.update_table("acl", in.updates[next_update++]);
      }
      // The shard recomputes this lazily at its next measurement; timing
      // it here isolates the incremental Merkle update from the packet.
      const Scope s(tr, "crypto.tables_digest");
      (void)sw.dataplane().program().tables_digest();
    }
    std::vector<crypto::Bytes> records;
    {
      const Scope pera_span(tr, "pera.process");
      {
        const Scope dp(tr, "dataplane.process");
        dataplane::ParsedPacket pkt;
        {
          const Scope s(tr, "dataplane.parse");
          pkt = sw.dataplane().parse(raw);
        }
        {
          const Scope s(tr, "dataplane.match_action");
          sw.dataplane().run_pipeline(pkt);
        }
        const Scope s(tr, "dataplane.deparse");
        if (!sw.dataplane().deparse(pkt).has_value()) ++out.not_forwarded;
      }
      for (const nac::HopInstruction* inst : hdr.instructions_for(kSwitchName)) {
        ::pera::pera::EngineResult ev;
        {
          const Scope s(tr, "pera.evidence_create");
          ev = sw.engine().create(*inst, hdr.nonce, &raw.data, nullptr);
        }
        const Scope s(tr, "copland.encode");
        records.push_back(copland::encode(ev.evidence));
      }
    }
    for (crypto::Bytes& bytes : records) {
      out.evidence_bytes += bytes.size();
      if (inject == Inject::kCorruptEvidence && i == in.stream.size() / 2) {
        bytes[bytes.size() / 2] ^= 0x5a;
      }
      if (out.sample.size() < 1024) out.sample.push_back(bytes);
      pipeline::EvidenceItem item{in.flow_of[i], i, 0, std::move(bytes), hdr.nonce};
      const Scope s(tr, "pipeline.appraise");
      buckets[item.flow].push_back(pipeline::appraise_record(item, verifiers));
    }
  }
  for (auto& [flow, recs] : buckets) {
    const Scope op(tr, "op");
    const Scope s(tr, "pipeline.fold");
    out.verdicts[flow] = pipeline::fold_flow(flow, recs, popt.appraise_mode);
  }
  out.signs = signer.signs();

  // Probes: single calls the ladder cannot split out of create() and
  // appraise_record().
  for (std::size_t i = 0; i < std::min<std::size_t>(in.stream.size(), 1024); ++i) {
    for (const nac::EvidenceDetail level :
         {nac::EvidenceDetail::kProgram, nac::EvidenceDetail::kTables,
          nac::EvidenceDetail::kPacket}) {
      if (!nac::has_detail(spec.detail, level)) continue;
      const Scope probe(tr, "probe");
      const Scope s(tr, "pera.measure");
      (void)sw.measurement().measure(level, &in.stream[i].data);
    }
  }
  for (const crypto::Bytes& bytes : out.sample) {
    copland::EvidencePtr ev;
    try {
      const Scope probe(tr, "probe");
      const Scope s(tr, "copland.decode");
      ev = copland::decode(crypto::BytesView{bytes.data(), bytes.size()});
    } catch (const std::exception&) {
      continue;  // the corrupted record; its failure is counted by the fold
    }
    if (ev->kind != copland::EvidenceKind::kSignature || !ev->child) continue;
    const crypto::Digest msg = copland::digest(ev->child);
    const crypto::Verifier* v = verifiers.by_key_id(ev->sig.key_id);
    if (v == nullptr) continue;
    const Scope probe(tr, "probe");
    const Scope s(tr, "crypto.verify");
    (void)crypto::verify_any(*v, msg, ev->sig);
  }
  return out;
}

}  // namespace

Report run_fwd(const std::string& workload, const RunOptions& opt) {
  const pipeline::PipelineOptions popt = pipeline_options();
  (void)pipeline::pin_current_thread(
      static_cast<unsigned>(popt.shards + popt.appraisers) % pipeline::core_count());
  const Spec spec = spec_for(workload, opt.tiny);
  const Inputs in = make_inputs(spec, opt.seed);
  const bool cached = !spec.churn;
  Report rep;

  // Untraced passes give the end-to-end figures; the traced run adds
  // traced passes (submit spans) and the serial ladder replay.
  std::vector<Pass> passes;
  std::vector<Pass> traced;
  const double budget = opt.trace ? 0.45 * opt.seconds : opt.seconds;
  const std::size_t min_passes = 3;
  for (const double start = wall_s();
       passes.size() < min_passes || wall_s() - start < budget;) {
    passes.push_back(run_pass(spec, in, nullptr));
  }
  Tracer tracer;
  if (opt.trace) {
    for (const double start = wall_s();
         traced.size() < min_passes || wall_s() - start < 0.3 * opt.seconds;) {
      traced.push_back(run_pass(spec, in, &tracer));
    }
  }

  const crypto::Digest reference = verdict_digest(passes[0].verdicts, cached);
  std::vector<double> pps, setup, drain, reuse, syncs, hit_ratio;
  double cpu = 0.0;
  std::uint64_t packets = 0;
  for (const std::vector<Pass>* set : {&passes, &traced}) {
    for (const Pass& p : *set) {
      rep.attempted += in.stream.size();
      const std::uint64_t bad = check_pass(p, in, rep);
      if (bad == 0 && verdict_digest(p.verdicts, cached) != reference) {
        rep.fail(in.stream.size(), "pass: summary digest differs from the first pass");
      }
      setup.push_back(p.setup_s);
      drain.push_back(p.drain_s * 1e3);
      const auto& r = p.report;
      reuse.push_back(static_cast<double>(r.pool_reused) /
                      static_cast<double>(std::max<std::uint64_t>(1, r.pool_reused + r.pool_fresh)));
      double s = 0.0;
      std::uint64_t hits = 0, lookups = 0;
      for (const pipeline::ShardReport& sr : r.shards) {
        s += static_cast<double>(sr.epoch_syncs);
        hits += sr.cache.hits;
        lookups += sr.cache.hits + sr.cache.misses;
      }
      syncs.push_back(s);
      hit_ratio.push_back(static_cast<double>(hits) /
                          static_cast<double>(std::max<std::uint64_t>(1, lookups)));
      if (set == &passes) {
        pps.push_back(static_cast<double>(in.stream.size()) / p.wall_s);
        cpu += p.cpu_s;
        packets += in.stream.size();
      }
    }
  }
  const double pkt_per_s = median(pps);
  const double cpu_us = cpu * 1e6 / static_cast<double>(packets);
  rep.named = {
      {"pkt_per_s", {pkt_per_s, "1/s"}},
      {"cpu_us_per_op", {cpu_us, "us"}},
      {"setup_s", {median(setup), "s"}},
      {"passes", {static_cast<double>(passes.size()), "count"}},
      {"packets_per_pass", {static_cast<double>(in.stream.size()), "count"}},
      {"frame_bytes", {static_cast<double>(in.stream[0].data.size()), "B"}},
  };
  rep.e2e["ops_per_s"] = {pkt_per_s, "1/s"};
  rep.e2e["cpu_us_per_op"] = {cpu_us, "us"};
  rep.e2e["setup_s"] = {median(setup), "s"};

  rep.layers["pipeline.drain_ms"] = {median(drain), "ms"};
  rep.layers["pipeline.pool_reuse_ratio"] = {median(reuse), "ratio"};
  rep.layers["pipeline.epoch_syncs"] = {median(syncs), "count"};
  rep.layers["pera.cache_hit_ratio"] = {median(hit_ratio), "ratio"};
  std::uint64_t dropped = 0;
  for (const Pass& p : passes) dropped += p.report.dropped;
  rep.layers["pipeline.dropped"] = {static_cast<double>(dropped), "count"};

  if (opt.trace || opt.inject == Inject::kCorruptEvidence) {
    std::vector<double> traced_pps;
    for (const Pass& p : traced) {
      traced_pps.push_back(static_cast<double>(in.stream.size()) / p.wall_s);
    }
    const ReplayResult rr = replay(spec, in, opt.trace ? &tracer : nullptr, opt.inject);
    rep.attempted += in.stream.size();
    if (rr.not_forwarded != 0) {
      rep.fail(rr.not_forwarded, "replay: packets not forwarded");
    }
    // Cross-check: the serial replay reaches the pipelined verdicts.
    for (const auto& [flow, expect] : in.packets_per_flow) {
      const auto a = rr.verdicts.find(flow);
      const auto b = passes[0].verdicts.find(flow);
      const bool same =
          a != rr.verdicts.end() && b != passes[0].verdicts.end() &&
          a->second.ok && a->second.records == b->second.records &&
          a->second.signature_failures == b->second.signature_failures &&
          a->second.ok == b->second.ok &&
          (!cached || a->second.transcript == b->second.transcript);
      if (!same) {
        rep.fail(expect, "replay: flow " + std::to_string(flow) +
                             " verdict differs from the pipelined run");
      }
    }
    if (opt.trace) {
      const double n = static_cast<double>(in.stream.size());
      rep.layers["pera.evidence_bytes_per_pkt"] = {
          static_cast<double>(rr.evidence_bytes) / n, "B"};
      rep.layers["crypto.signs_per_pkt"] = {static_cast<double>(rr.signs) / n, "count"};
      rep.layers["trace.overhead_ratio"] = {pkt_per_s / median(traced_pps), "ratio"};
      finish_trace(tracer, opt, rep);
    }
  }
  return rep;
}

}  // namespace perfbench
