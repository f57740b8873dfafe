// ra_rounds: RA rounds over loopback TCP, challenge -> certificate.
//
// One AppraiserServer (1 epoll reactor, 1 appraiser worker) and one
// SwitchFleet thread driving 256 sessions in a closed loop at depth 1 —
// each switch waits for its certificate before sending the next round.
// A pass sets up the server and the fleet (timed as set-up, including
// the 256 RA handshakes), then runs rounds in chunks until its share of
// the budget is spent.
//
// The traced run adds a sans-I/O replay of the same rounds through the
// session state machines, appraise_record and the certificate code, with
// a span around each call; the socket, epoll and hand-off work it cannot
// see is reported as net.io_remainder_us.
#include <algorithm>
#include <cstring>

#include "common.h"
#include "copland/evidence.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "net/session.h"
#include "pipeline/appraiser.h"
#include "pipeline/pipeline.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace pera;

constexpr const char* kDeviceLabel = "pera.net.device";
constexpr std::size_t kDeviceKeys = 16;

struct Keys {
  crypto::Digest quote_root, golden, evidence_root, cert_key, appraiser_meas;
};

Keys make_keys(std::uint64_t seed) {
  const std::string s = std::to_string(seed);
  return {crypto::sha256("perfbench-quote-root-" + s),
          crypto::sha256("perfbench-golden-" + s),
          crypto::sha256("perfbench-evidence-root-" + s),
          crypto::sha256("perfbench-cert-key-" + s),
          crypto::sha256("perfbench-appraiser-meas-" + s)};
}

net::ServerConfig server_config(const Keys& k) {
  net::ServerConfig sc;
  sc.reactors = 1;
  sc.appraiser_workers = 1;
  sc.quote_root_key = k.quote_root;
  sc.golden_measurement = k.golden;
  sc.evidence_root_key = k.evidence_root;
  sc.evidence_key_label = kDeviceLabel;
  sc.evidence_max_shards = kDeviceKeys;
  sc.cert_key = k.cert_key;
  sc.appraiser_measurement = k.appraiser_meas;
  return sc;
}

// A switch whose quote claims a tampered measurement must be refused at
// the handshake with kBadQuote.
bool tampered_quote_refused(const Keys& k, std::uint16_t port) {
  net::ClientIdentity id;
  id.place = "intruder";
  id.quote_root_key = k.quote_root;
  id.measurement = crypto::sha256("perfbench-tampered-program");
  id.device_key =
      pipeline::PeraPipeline::shard_keys(k.evidence_root, kDeviceLabel, kDeviceKeys)[0];
  net::SwitchClient client(id);
  const bool admitted = client.connect(port, 5000);
  return !admitted && client.reject_reason() == net::RejectReason::kBadQuote;
}

// Round latencies in 1 us buckets up to 100 ms; slower rounds share the
// last bucket. Memory stays fixed however many rounds a run completes, so
// peak RSS does not grow with throughput.
class LatencyHistogram {
 public:
  void add(const std::vector<float>& samples_us) {
    for (const float us : samples_us) {
      const auto b = static_cast<std::size_t>(std::max(0.0F, us));
      ++counts_[std::min(b, counts_.size() - 1)];
    }
    n_ += samples_us.size();
  }
  /// Nearest-rank percentile (p in [0, 1]) at bucket midpoints.
  [[nodiscard]] double percentile(double p) const {
    if (n_ == 0) return 0.0;
    const auto rank = static_cast<std::uint64_t>(p * static_cast<double>(n_ - 1) + 0.5);
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < counts_.size(); ++b) {
      seen += counts_[b];
      if (seen > rank) return static_cast<double>(b) + 0.5;
    }
    return static_cast<double>(counts_.size());
  }
  [[nodiscard]] std::uint64_t count() const { return n_; }

 private:
  std::vector<std::uint32_t> counts_ = std::vector<std::uint32_t>(100'000, 0);
  std::uint64_t n_ = 0;
};

struct ReplayStats {
  std::uint64_t rounds = 0;
  std::uint64_t bytes = 0;
  std::uint64_t bad = 0;
  std::uint64_t signs = 0;  // switch evidence + certificates
};

// Sans-I/O replay: the same client and server session state machines,
// appraisal core and certificate code the socket path drives, without
// sockets, epoll or threads.
ReplayStats replay(const Keys& k, std::size_t sessions,
                   std::size_t rounds_per_session, Tracer* tr) {
  ReplayStats out;
  crypto::NonceRegistry registry(0xC0C0'0001);
  net::ServerSessionConfig scfg;
  scfg.check_quote = [&k](const net::Quote& q) {
    const crypto::HmacVerifier v(net::derive_quote_key(k.quote_root, q.place));
    if (!q.verify(v) || q.measurement != k.golden) return net::RejectReason::kBadQuote;
    return net::RejectReason::kNone;
  };
  scfg.admit_nonce = [&registry](const crypto::Nonce& n) { return registry.observe(n); };
  scfg.make_server_nonce = [&registry] { return registry.issue(); };
  const pipeline::VerifierSet verifiers(k.evidence_root, kDeviceLabel, kDeviceKeys);
  crypto::HmacSigner cert_signer(k.cert_key);
  const crypto::HmacVerifier cert_verifier(k.cert_key);
  const std::vector<crypto::Digest> device_keys =
      pipeline::PeraPipeline::shard_keys(k.evidence_root, kDeviceLabel, kDeviceKeys);

  std::uint64_t seq = 0;
  for (std::size_t s = 0; s < sessions; ++s) {
    const std::string place = "sw" + std::to_string(s);
    crypto::HmacSigner quote_signer(net::derive_quote_key(k.quote_root, place));
    crypto::HmacSigner device(device_keys[s % device_keys.size()]);
    TracingSigner device_signer(device, tr);
    net::ClientSessionConfig cc;
    cc.place = place;
    cc.role = net::SessionRole::kSwitch;
    cc.make_quote = [&](const crypto::Nonce& n) {
      return net::Quote::make(place, n, k.golden, quote_signer);
    };
    crypto::Nonce session_nonce;
    std::memcpy(session_nonce.value.v.data(), &s, sizeof s);
    session_nonce.value.v[8] = 0x5A;
    net::ClientSession client(std::move(cc), session_nonce);
    net::ServerSession server(&scfg);
    {
      const Scope h(tr, "net.handshake");
      client.start();
      server.on_bytes(crypto::BytesView{client.outbox().data(), client.outbox().size()});
      client.outbox().clear();
      client.on_bytes(crypto::BytesView{server.outbox().data(), server.outbox().size()});
      server.outbox().clear();
    }
    if (!client.established() || !server.established()) {
      out.bad += rounds_per_session;
      continue;
    }
    crypto::Bytes evidence;
    {
      const Scope e(tr, "ra.switch_evidence");
      evidence = net::make_signed_evidence(place, k.golden, session_nonce, device_signer);
    }
    for (std::size_t r = 0; r < rounds_per_session; ++r, ++seq) {
      crypto::Nonce nonce;
      std::memcpy(nonce.value.v.data(), &seq, sizeof seq);
      nonce.value.v[15] = 0xE1;
      const Scope op(tr, "op");
      {
        const Scope c(tr, "net.client_session");
        client.send_evidence(nonce, crypto::BytesView{evidence.data(), evidence.size()});
      }
      out.bytes += client.outbox().size();
      std::vector<net::EvidenceRound> got;
      {
        const Scope c(tr, "net.server_session");
        server.on_bytes(crypto::BytesView{client.outbox().data(), client.outbox().size()});
        got = server.take_evidence();
      }
      client.outbox().clear();
      if (got.size() != 1) {
        ++out.bad;
        continue;
      }
      pipeline::AppraisedRecord rec;
      {
        const Scope c(tr, "pipeline.appraise");
        const pipeline::EvidenceItem item{s, seq, 0, std::move(got[0].evidence),
                                          got[0].nonce};
        rec = pipeline::appraise_record(item, verifiers);
      }
      ra::Certificate cert;
      {
        const Scope c(tr, "ra.cert_sign");
        cert.appraiser = "appraiser";
        cert.nonce = got[0].nonce;
        cert.verdict = rec.decoded && rec.sig_ok;
        if (rec.content) cert.evidence_digest = copland::digest(rec.content);
        cert.sig = cert_signer.sign(cert.signing_payload());
        ++out.signs;
      }
      {
        const Scope c(tr, "net.server_session");
        server.queue_result(cert);
      }
      out.bytes += server.outbox().size();
      std::vector<ra::Certificate> results;
      {
        const Scope c(tr, "net.client_session");
        client.on_bytes(crypto::BytesView{server.outbox().data(), server.outbox().size()});
        results = client.take_results();
      }
      server.outbox().clear();
      bool ok = false;
      {
        const Scope c(tr, "ra.cert_verify");
        ok = results.size() == 1 && results[0].verify(cert_verifier);
      }
      if (!ok || !results[0].verdict || !(results[0].nonce == nonce)) ++out.bad;
      ++out.rounds;
    }
    out.signs += device_signer.signs();
  }

  // Probes: the frame codec on one evidence round's payload, and the
  // decode and verify steps inside appraise_record.
  crypto::HmacSigner device(device_keys[0]);
  const crypto::Bytes ev = net::make_signed_evidence("sw0", k.golden, crypto::Nonce{}, device);
  for (int i = 0; i < 1024; ++i) {
    crypto::Bytes frame;
    {
      const Scope p(tr, "probe");
      const Scope s(tr, "net.frame_encode");
      frame = net::encode_frame(net::FrameType::kEvidence,
                                crypto::BytesView{ev.data(), ev.size()});
    }
    {
      const Scope p(tr, "probe");
      const Scope s(tr, "net.frame_decode");
      net::FrameDecoder dec;
      dec.feed(crypto::BytesView{frame.data(), frame.size()});
      if (!dec.next().has_value()) ++out.bad;
    }
    copland::EvidencePtr decoded;
    {
      const Scope p(tr, "probe");
      const Scope s(tr, "copland.decode");
      decoded = copland::decode(crypto::BytesView{ev.data(), ev.size()});
    }
    const crypto::Digest msg = copland::digest(decoded->child);
    const crypto::Verifier* v = verifiers.by_key_id(decoded->sig.key_id);
    bool ok = false;
    if (v != nullptr) {
      const Scope p(tr, "probe");
      const Scope s(tr, "crypto.verify");
      ok = crypto::verify_any(*v, msg, decoded->sig);
    }
    if (!ok) ++out.bad;
  }
  return out;
}

}  // namespace

Report run_ra_rounds(const RunOptions& opt) {
  const Keys keys = make_keys(opt.seed);
  const std::size_t sessions = opt.tiny ? 16 : 256;
  // Rounds per run_rounds call. Each call primes every session and ends
  // with a partly idle tail, so a chunk is ~64 round trips per session.
  const std::size_t chunk = sessions * 64;
  const int passes = 5;
  const double budget = (opt.trace ? 0.6 : 1.0) * opt.seconds;
  const double untraced_budget = opt.trace ? budget / 2 : budget;
  Report rep;
  Tracer tracer;

  std::vector<double> setup, untraced_rps, traced_rps;
  LatencyHistogram latency;
  double cpu = 0.0;
  std::uint64_t rounds = 0;
  bool quote_checked = false;
  for (int pass = 0; pass < passes * (opt.trace ? 2 : 1); ++pass) {
    const bool traced = opt.trace && pass >= passes;
    Tracer* tr = traced ? &tracer : nullptr;
    const double pass_budget = (traced ? budget - untraced_budget : untraced_budget) / passes;

    const double s0 = wall_s();
    net::AppraiserServer server(server_config(keys));
    server.start();
    net::SwitchFleet::Config fc;
    fc.port = server.port();
    fc.connections = sessions;
    fc.depth = 1;
    fc.device_keys =
        pipeline::PeraPipeline::shard_keys(keys.evidence_root, kDeviceLabel, kDeviceKeys);
    fc.quote_root_key = keys.quote_root;
    fc.measurement = opt.inject == Inject::kTamperedQuote
                         ? crypto::sha256("perfbench-tampered-program")
                         : keys.golden;
    net::SwitchFleet fleet(fc);
    const std::size_t established = fleet.establish(20'000);
    setup.push_back(wall_s() - s0);
    rep.attempted += sessions;
    if (established != sessions) {
      rep.fail(sessions - established, "pass: " + std::to_string(established) + " of " +
                                           std::to_string(sessions) +
                                           " sessions established");
    }

    const double c0 = cpu_s();
    const double t0 = wall_s();
    std::uint64_t done = 0;
    while (established > 0 && (done == 0 || wall_s() - t0 < pass_budget)) {
      net::SwitchFleet::RunStats rs;
      {
        const Scope s(tr, "net.rounds_chunk");
        rs = fleet.run_rounds(chunk, 30'000);
      }
      rep.attempted += chunk;
      done += rs.rounds_completed;
      if (rs.wall_ns > 0 && rs.rounds_completed > 0) {
        (traced ? traced_rps : untraced_rps)
            .push_back(static_cast<double>(rs.rounds_completed) * 1e9 /
                       static_cast<double>(rs.wall_ns));
      }
      const std::uint64_t lost = chunk - std::min<std::uint64_t>(rs.rounds_completed, chunk);
      if (lost + rs.verdict_failures + rs.session_failures > 0) {
        rep.fail(lost + rs.verdict_failures + rs.session_failures,
                 "rounds: " + std::to_string(rs.rounds_completed) + " of " +
                     std::to_string(chunk) + " completed, " +
                     std::to_string(rs.verdict_failures) + " false verdicts, " +
                     std::to_string(rs.session_failures) + " failed sessions");
      }
      if (!traced) latency.add(rs.latency_us);
    }
    if (!traced) {
      cpu += cpu_s() - c0;
      rounds += done;
    }
    if (!quote_checked) {
      quote_checked = true;
      rep.attempted += 1;
      if (!tampered_quote_refused(keys, server.port())) {
        rep.fail(1, "a session with a tampered quote was not refused with kBadQuote");
      }
    }
    fleet.shutdown();
    server.stop();
  }

  const double rps = median(untraced_rps);
  const double cpu_us = rounds > 0 ? cpu * 1e6 / static_cast<double>(rounds) : 0.0;
  const double p50 = latency.percentile(0.50);
  const double p99 = latency.percentile(0.99);
  rep.named = {
      {"round_per_s", {rps, "1/s"}},
      {"round_p50_us", {p50, "us"}},
      {"round_p99_us", {p99, "us"}},
      {"round_samples", {static_cast<double>(latency.count()), "count"}},
      {"sessions", {static_cast<double>(sessions), "count"}},
  };
  rep.e2e["ops_per_s"] = {rps, "1/s"};
  rep.e2e["cpu_us_per_op"] = {cpu_us, "us"};
  rep.e2e["setup_s"] = {median(setup), "s"};
  rep.layers["ra.round_p50_us"] = {p50, "us"};
  rep.layers["ra.round_p99_us"] = {p99, "us"};
  rep.layers["ra.round_samples"] = {static_cast<double>(latency.count()), "count"};

  if (opt.trace) {
    const std::size_t replay_sessions = opt.tiny ? 4 : 64;
    const ReplayStats rs = replay(keys, replay_sessions, 64, &tracer);
    rep.attempted += rs.rounds;
    if (rs.bad > 0) rep.fail(rs.bad, "sans-I/O replay: rounds or probes failed");
    rep.layers["net.bytes_per_round"] = {
        static_cast<double>(rs.bytes) / static_cast<double>(std::max<std::uint64_t>(1, rs.rounds)),
        "B"};
    rep.layers["trace.overhead_ratio"] = {rps / median(traced_rps), "ratio"};
    rep.layers["crypto.signs_per_pkt"] = {
        static_cast<double>(rs.signs) / static_cast<double>(std::max<std::uint64_t>(1, rs.rounds)),
        "count"};
    finish_trace(tracer, opt, rep);
    // Per-round CPU the sans-I/O ladder does not account for: sockets,
    // epoll, ring hand-off and thread wake-ups.
    const std::map<std::string, double> ladder = tracer.ladder_self_ns();
    double ladder_ns = 0.0;
    for (const auto& [name, ns] : ladder) ladder_ns += ns;
    rep.layers["net.io_remainder_us"] = {
        cpu_us - ladder_ns / 1e3 / static_cast<double>(std::max<std::uint64_t>(1, rs.rounds)),
        "us"};
  }
  return rep;
}

}  // namespace perfbench
