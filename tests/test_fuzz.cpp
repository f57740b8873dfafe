// Robustness fuzzing: random byte mutations of every wire format must
// either decode to something well-formed or throw — never crash, hang, or
// read out of bounds. (Run under ASAN for full effect; the invariant
// checked here is "throws std::exception or succeeds".)
#include <gtest/gtest.h>

#include <optional>

#include "copland/evidence.h"
#include "core/wire.h"
#include "crypto/drbg.h"
#include "crypto/keystore.h"
#include "crypto/merkle.h"
#include "copland/parser.h"
#include "dataplane/builder.h"
#include "dataplane/p4mini.h"
#include "nac/header.h"
#include "netkat/parser.h"
#include "pera/batcher.h"
#include "ra/certificate.h"
#include "ra/roles.h"
#include "ra/endorsement.h"
#include "merkle_oracle.h"

namespace pera {
namespace {

using crypto::Bytes;
using crypto::BytesView;

// Apply `n` random mutations (byte flips, truncations, extensions).
Bytes mutate(Bytes data, crypto::Drbg& rng, int n) {
  for (int i = 0; i < n; ++i) {
    if (data.empty()) {
      data.push_back(static_cast<std::uint8_t>(rng.uniform(256)));
      continue;
    }
    switch (rng.uniform(4)) {
      case 0:  // flip a byte
        data[rng.uniform(data.size())] ^=
            static_cast<std::uint8_t>(1 + rng.uniform(255));
        break;
      case 1:  // truncate
        data.resize(rng.uniform(data.size()) );
        break;
      case 2:  // extend with junk
        data.push_back(static_cast<std::uint8_t>(rng.uniform(256)));
        break;
      default:  // overwrite a run
        for (std::size_t j = rng.uniform(data.size());
             j < data.size() && rng.chance(0.7); ++j) {
          data[j] = static_cast<std::uint8_t>(rng.uniform(256));
        }
        break;
    }
  }
  return data;
}

template <typename DecodeFn>
void fuzz_decoder(const Bytes& seed_bytes, std::uint64_t seed, int rounds,
                  DecodeFn decode) {
  crypto::Drbg rng(seed);
  for (int i = 0; i < rounds; ++i) {
    const Bytes mutated = mutate(seed_bytes, rng, 1 + static_cast<int>(rng.uniform(6)));
    try {
      decode(BytesView{mutated.data(), mutated.size()});
    } catch (const std::exception&) {
      // expected for malformed input
    }
  }
}

// The appraiser's scanner accepts exactly what decode() accepts, and on
// accepted input reports the decoded term's outer signature and the
// bytes of its signed content (the whole term when unsigned).
void expect_scan_matches_decode(BytesView d) {
  copland::EvidencePtr tree;
  try {
    tree = copland::decode(d);
  } catch (const std::exception&) {
  }
  std::optional<copland::ScannedEvidence> scanned;
  try {
    scanned = copland::scan(d);
  } catch (const std::exception&) {
  }
  ASSERT_EQ(tree != nullptr, scanned.has_value());
  if (tree == nullptr) return;
  const bool is_signed = tree->kind == copland::EvidenceKind::kSignature;
  ASSERT_EQ(scanned->is_signed, is_signed);
  EXPECT_EQ(Bytes(scanned->content.begin(), scanned->content.end()),
            copland::encode(is_signed ? tree->child : tree));
  if (is_signed) {
    EXPECT_EQ(scanned->sig.key_id, tree->sig.key_id);
    EXPECT_EQ(scanned->sig, tree->sig);
  }
}

TEST(Fuzz, EvidenceDecoder) {
  const copland::EvidencePtr content = copland::Evidence::seq(
      copland::Evidence::measurement("a", "p", "t", crypto::sha256("v"), "c"),
      copland::Evidence::nonce_ev(crypto::Nonce{crypto::sha256("n")}));
  const crypto::Digest msg = copland::digest(content);
  crypto::HmacSigner hmac(crypto::sha256("fuzz-hmac"));
  crypto::XmssSigner xmss(crypto::sha256("fuzz-xmss"), 4);
  ::pera::pera::EvidenceBatcher batcher(hmac, 4);
  (void)batcher.add(crypto::sha256("other leaf"));
  (void)batcher.add(msg);
  const std::vector<crypto::Signature> batched = batcher.flush_wrapped();

  std::vector<Bytes> seeds = {
      copland::encode(content),
      copland::encode(copland::Evidence::signature("p", content,
                                                   hmac.sign(msg))),
      copland::encode(copland::Evidence::signature("p", content,
                                                   xmss.sign(msg))),
      copland::encode(copland::Evidence::signature("p", content, batched[1])),
      // Signed content nested under a signature, and an empty term.
      copland::encode(copland::Evidence::signature(
          "q",
          copland::Evidence::par(copland::Evidence::signature(
                                     "p", content, hmac.sign(msg)),
                                 copland::Evidence::empty()),
          hmac.sign(msg))),
      // Past the nesting bound: both must reject it.
      Bytes(2048, static_cast<std::uint8_t>(copland::EvidenceKind::kSeq)),
  };
  std::uint64_t seed = 11;
  for (const Bytes& s : seeds) {
    expect_scan_matches_decode(BytesView{s.data(), s.size()});
    fuzz_decoder(s, seed++, 400,
                 [](BytesView d) { expect_scan_matches_decode(d); });
  }
}

TEST(Fuzz, EvidenceNestingBound) {
  // A term exactly kMaxEvidenceDepth deep decodes; one level more is
  // rejected by decode() and scan() alike.
  const auto chain = [](std::size_t depth) {
    Bytes b(depth - 1, static_cast<std::uint8_t>(copland::EvidenceKind::kSeq));
    b.resize(2 * depth - 1,
             static_cast<std::uint8_t>(copland::EvidenceKind::kEmpty));
    return b;
  };
  const Bytes at_bound = chain(copland::kMaxEvidenceDepth);
  const Bytes past_bound = chain(copland::kMaxEvidenceDepth + 1);
  EXPECT_NO_THROW((void)copland::decode(BytesView{at_bound}));
  EXPECT_NO_THROW((void)copland::scan(BytesView{at_bound}));
  EXPECT_THROW((void)copland::decode(BytesView{past_bound}),
               std::invalid_argument);
  EXPECT_THROW((void)copland::scan(BytesView{past_bound}),
               std::invalid_argument);
  // 64 KiB of kSeq: rejected at the bound, long before the stack runs out.
  const Bytes hostile(64 * 1024,
                      static_cast<std::uint8_t>(copland::EvidenceKind::kSeq));
  EXPECT_THROW((void)copland::decode(BytesView{hostile}),
               std::invalid_argument);
  EXPECT_THROW((void)copland::scan(BytesView{hostile}), std::invalid_argument);
}

TEST(Fuzz, PolicyHeaderDecoder) {
  nac::CompiledPolicy pol;
  pol.policy_id = crypto::sha256("p");
  nac::HopInstruction h;
  h.wildcard = true;
  h.guard = "K";
  h.detail = nac::kAllDetail;
  h.sign_evidence = true;
  h.custom_targets = {"x", "y"};
  pol.hops = {h};
  pol.appraiser = "Appraiser";
  fuzz_decoder(nac::make_header(pol, {}, true, 3).serialize(), 12, 400,
               [](BytesView d) { (void)nac::PolicyHeader::deserialize(d); });
}

TEST(Fuzz, EvidenceCarrierDecoder) {
  nac::EvidenceCarrier c;
  c.add("s1", Bytes{1, 2, 3, 4, 5});
  c.add("s2", Bytes(40, 0xcd));
  fuzz_decoder(c.serialize(), 13, 400,
               [](BytesView d) { (void)nac::EvidenceCarrier::deserialize(d); });
}

TEST(Fuzz, CertificateDecoder) {
  crypto::KeyStore keys(14);
  crypto::Signer& s = keys.provision_hmac("app");
  ra::Certificate cert;
  cert.appraiser = "app";
  cert.evidence_digest = crypto::sha256("e");
  cert.verdict = true;
  cert.sig = s.sign(cert.signing_payload());
  fuzz_decoder(cert.serialize(), 15, 400,
               [](BytesView d) { (void)ra::Certificate::deserialize(d); });
}

TEST(Fuzz, EndorsementDecoder) {
  crypto::KeyStore keys(16);
  const ra::Endorsement e = ra::Endorsement::make(
      "vendor", "s1", "Program", "v5", crypto::sha256("img"),
      keys.provision_hmac("vendor"));
  fuzz_decoder(e.serialize(), 17, 400,
               [](BytesView d) { (void)ra::Endorsement::deserialize(d); });
}

TEST(Fuzz, SignatureDecoder) {
  crypto::KeyStore keys(18);
  const crypto::Signature sig =
      keys.provision_hmac("x").sign(crypto::sha256("m"));
  fuzz_decoder(sig.serialize(), 19, 400,
               [](BytesView d) { (void)crypto::Signature::deserialize(d); });
}

TEST(Fuzz, MerkleProofDecoder) {
  std::vector<crypto::Digest> leaves;
  for (int i = 0; i < 9; ++i) leaves.push_back(crypto::sha256(std::to_string(i)));
  const crypto::oracle::MerkleReference tree(leaves);
  fuzz_decoder(tree.prove(4).serialize(), 20, 400,
               [](BytesView d) { (void)crypto::MerkleProof::deserialize(d); });
}

TEST(Fuzz, FlowBundleDecoder) {
  core::FlowBundle bundle;
  bundle.raw = dataplane::make_tcp_packet({});
  netsim::Message msg;
  bundle.to_message(msg);
  crypto::Drbg rng(21);
  for (int i = 0; i < 300; ++i) {
    netsim::Message m = msg;
    m.headers = mutate(m.headers, rng, 1 + static_cast<int>(rng.uniform(4)));
    m.payload = mutate(m.payload, rng, 1 + static_cast<int>(rng.uniform(4)));
    try {
      (void)core::FlowBundle::from_message(m);
    } catch (const std::exception&) {
    }
  }
}

// Text-format fuzzing: mutated sources must parse or throw, never crash.
TEST(Fuzz, CoplandParser) {
  const std::string seed_src =
      "*bank<n, X> : forall hop, client : (@hop [Khop |> attest(n, X) -> !] "
      "-<+ @Appraiser [appraise -> store(n)]) *=> @client [x]";
  crypto::Drbg rng(22);
  for (int i = 0; i < 400; ++i) {
    std::string src = seed_src;
    const int mutations = 1 + static_cast<int>(rng.uniform(5));
    for (int m = 0; m < mutations; ++m) {
      if (src.empty()) break;
      const std::size_t pos = rng.uniform(src.size());
      switch (rng.uniform(3)) {
        case 0: src[pos] = static_cast<char>(32 + rng.uniform(95)); break;
        case 1: src.erase(pos, 1 + rng.uniform(4)); break;
        default: src.insert(pos, 1, static_cast<char>(32 + rng.uniform(95)));
      }
    }
    try {
      (void)copland::parse_request(src);
    } catch (const std::exception&) {
    }
  }
}

TEST(Fuzz, P4MiniCompiler) {
  const std::string seed_src = dataplane::p4src::acl_v3();
  crypto::Drbg rng(23);
  for (int i = 0; i < 200; ++i) {
    std::string src = seed_src;
    const int mutations = 1 + static_cast<int>(rng.uniform(4));
    for (int m = 0; m < mutations; ++m) {
      const std::size_t pos = rng.uniform(src.size());
      switch (rng.uniform(3)) {
        case 0: src[pos] = static_cast<char>(32 + rng.uniform(95)); break;
        case 1: src.erase(pos, 1 + rng.uniform(8)); break;
        default: src.insert(pos, 1, static_cast<char>(32 + rng.uniform(95)));
      }
    }
    try {
      (void)dataplane::compile_p4mini(src);
    } catch (const std::exception&) {
    }
  }
}

TEST(Fuzz, NetkatParser) {
  const std::string seed_src =
      "filter (sw = 1 & !(pt = 9) + dst & 0xff00 = 0x1200) ; pt := 2 + drop";
  crypto::Drbg rng(24);
  for (int i = 0; i < 300; ++i) {
    std::string src = seed_src;
    const int mutations = 1 + static_cast<int>(rng.uniform(5));
    for (int m = 0; m < mutations; ++m) {
      if (src.empty()) break;
      const std::size_t pos = rng.uniform(src.size());
      switch (rng.uniform(3)) {
        case 0: src[pos] = static_cast<char>(32 + rng.uniform(95)); break;
        case 1: src.erase(pos, 1 + rng.uniform(4)); break;
        default: src.insert(pos, 1, static_cast<char>(32 + rng.uniform(95)));
      }
    }
    try {
      (void)netkat::parse_policy(src);
    } catch (const std::exception&) {
    }
  }
}

// Audit query API (UC4).
TEST(AuditQueries, CertificatesBetweenAndFailed) {
  crypto::KeyStore keys(25);
  ra::Appraiser app("Appraiser", keys);
  keys.provision_hmac("Appraiser");
  ra::Attester att("s1", keys.provision_hmac("s1"));
  crypto::Digest live = crypto::sha256("good");
  att.add_claim_source({"Program", [&live] { return live; }, "prog"});
  app.set_golden("s1", "Program", crypto::sha256("good"));

  crypto::NonceRegistry nonces(26);
  for (int t = 1; t <= 5; ++t) {
    if (t == 4) live = crypto::sha256("rogue");  // compromise at t=4
    const crypto::Nonce n = nonces.issue();
    (void)app.appraise(att.attest({}, n), n, true, t * 100);
  }
  EXPECT_EQ(app.stored_count(), 5u);
  EXPECT_EQ(app.certificates_between(200, 400).size(), 3u);
  const auto window = app.certificates_between(200, 400);
  EXPECT_LE(window.front().issued_at, window.back().issued_at);
  const auto failed = app.failed_certificates();
  ASSERT_EQ(failed.size(), 2u);  // t=4 and t=5
  for (const auto& c : failed) EXPECT_GE(c.issued_at, 400);
}

}  // namespace
}  // namespace pera
