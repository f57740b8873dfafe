// Backend equivalence tests for the SHA-256 engine: FIPS 180-4 / NIST
// CAVP known-answer vectors run against every compiled-in backend, a
// randomized scalar-vs-SIMD differential over message lengths and lane
// counts, WOTS round-trips pinned per backend, and the dispatcher's
// select()/override semantics. The whole point of runtime dispatch is
// that digests are byte-identical no matter which backend resolves —
// these tests are that contract.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "crypto/hmac.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "crypto/sha256_backend.h"
#include "crypto/wots.h"
#include "merkle_oracle.h"

namespace pera::crypto {
namespace {

// Restores whatever backend was active when the test started, so a
// failing test can't leak a forced backend into the rest of the binary.
class BackendGuard {
 public:
  BackendGuard() : saved_(engine::active().name) {}
  ~BackendGuard() { engine::select(saved_); }

 private:
  std::string saved_;
};

std::vector<std::string> backends() { return engine::available(); }

// --- FIPS 180-4 / CAVP known answers, per backend ---------------------------

struct Kat {
  const char* message;
  std::size_t repeat;  // message repeated this many times
  const char* digest;
};

// The two FIPS 180-4 examples, the empty string, and two one-shot CAVP
// byte-oriented vectors (0xbd and 0xc98c8e55 require binary input, so
// they get their own test below).
constexpr Kat kKats[] = {
    {"", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
    {"abc", 1,
     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
    {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq", 1,
     "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
    {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
     "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
     1, "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
    {"a", 1000000,
     "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
};

TEST(Sha256Backends, FipsKnownAnswersPerBackend) {
  BackendGuard guard;
  for (const std::string& name : backends()) {
    ASSERT_TRUE(engine::select(name)) << name;
    for (const Kat& kat : kKats) {
      Sha256 h;
      for (std::size_t r = 0; r < kat.repeat; ++r) h.update(kat.message);
      EXPECT_EQ(to_hex(BytesView{h.finish().v.data(), 32}), kat.digest)
          << "backend=" << name << " msg=" << kat.message;
    }
  }
}

TEST(Sha256Backends, CavpBinaryVectorsPerBackend) {
  BackendGuard guard;
  const Bytes one_byte = {0xbd};
  const Bytes four_bytes = {0xc9, 0x8c, 0x8e, 0x55};
  for (const std::string& name : backends()) {
    ASSERT_TRUE(engine::select(name)) << name;
    EXPECT_EQ(to_hex(BytesView{
                  sha256(BytesView{one_byte.data(), one_byte.size()}).v.data(),
                  32}),
              "68325720aabd7c82f30f554b313d0570c95accbb7dc4b5aae11204c08ffe732b")
        << "backend=" << name;
    EXPECT_EQ(
        to_hex(BytesView{
            sha256(BytesView{four_bytes.data(), four_bytes.size()}).v.data(),
            32}),
        "7abc22c0ae5af26ce93dbb94433a0e0b2e119d014f8e7f65bd56c61ccccd9504")
        << "backend=" << name;
  }
}

// --- randomized differential: every backend vs scalar -----------------------

TEST(Sha256Backends, RandomizedDifferentialVsScalar) {
  BackendGuard guard;
  std::mt19937_64 rng(0x5eed5eedULL);
  for (std::size_t len = 0; len <= 256; ++len) {
    Bytes msg(len);
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng());

    ASSERT_TRUE(engine::select("scalar"));
    const Digest ref = sha256(BytesView{msg.data(), msg.size()});

    for (const std::string& name : backends()) {
      if (name == "scalar") continue;
      ASSERT_TRUE(engine::select(name));
      EXPECT_EQ(sha256(BytesView{msg.data(), msg.size()}), ref)
          << "backend=" << name << " len=" << len;
    }
  }
}

TEST(Sha256Backends, CompressMultiMatchesScalarForEveryLaneCount) {
  BackendGuard guard;
  std::mt19937_64 rng(0xfeedULL);
  for (std::size_t lanes = 1; lanes <= engine::kMaxLanes; ++lanes) {
    alignas(32) std::uint8_t blocks[engine::kMaxLanes][64];
    for (std::size_t j = 0; j < lanes; ++j) {
      for (auto& b : blocks[j]) b = static_cast<std::uint8_t>(rng());
    }

    ASSERT_TRUE(engine::select("scalar"));
    std::vector<Digest> ref(lanes);
    sha256_block_multi(blocks, ref.data(), lanes);

    for (const std::string& name : backends()) {
      ASSERT_TRUE(engine::select(name));
      std::vector<Digest> got(lanes);
      sha256_block_multi(blocks, got.data(), lanes);
      for (std::size_t j = 0; j < lanes; ++j) {
        EXPECT_EQ(got[j], ref[j]) << "backend=" << name << " lanes=" << lanes
                                  << " lane=" << j;
      }
    }
  }
}

// --- higher-level primitives are backend-invariant --------------------------

TEST(Sha256Backends, WotsSignVerifyRoundTripPerBackend) {
  BackendGuard guard;
  const Digest seed = sha256("backend-test-seed");
  const Digest msg = sha256("backend-test-message");

  ASSERT_TRUE(engine::select("scalar"));
  const auto sk = wots::keygen_secret(seed, 42);
  const auto pk = wots::derive_public(sk);
  const auto ref_sig = wots::sign(sk, msg);

  for (const std::string& name : backends()) {
    ASSERT_TRUE(engine::select(name)) << name;
    // Key material, signature bytes and the verification result must all
    // be identical to the scalar reference.
    const auto sk2 = wots::keygen_secret(seed, 42);
    EXPECT_EQ(sk2.chains, sk.chains) << "backend=" << name;
    EXPECT_EQ(wots::derive_public(sk2), pk) << "backend=" << name;
    const auto sig = wots::sign(sk2, msg);
    EXPECT_EQ(sig.serialize(), ref_sig.serialize()) << "backend=" << name;
    EXPECT_TRUE(wots::verify(pk, msg, sig)) << "backend=" << name;
    Digest tampered = msg;
    tampered.v[0] ^= 1;
    EXPECT_FALSE(wots::verify(pk, tampered, sig)) << "backend=" << name;
  }
}

TEST(Sha256Backends, DeriveKeysIdenticalAcrossBackends) {
  BackendGuard guard;
  const Digest root = sha256("derive-root");
  const BytesView root_view{root.v.data(), root.v.size()};

  ASSERT_TRUE(engine::select("scalar"));
  const auto ref = derive_keys(root_view, "pera.wots.chain", 67);
  // The batched fast path only fires for labels that fit one padded
  // block; a long label must fall back and still agree.
  const std::string long_label(80, 'x');
  const auto ref_long = derive_keys(root_view, long_label, 5);

  for (const std::string& name : backends()) {
    ASSERT_TRUE(engine::select(name)) << name;
    EXPECT_EQ(derive_keys(root_view, "pera.wots.chain", 67), ref)
        << "backend=" << name;
    EXPECT_EQ(derive_keys(root_view, long_label, 5), ref_long)
        << "backend=" << name;
  }
}

TEST(Sha256Backends, MerkleRootIdenticalAcrossBackends) {
  BackendGuard guard;
  for (const std::size_t n : {1u, 2u, 3u, 7u, 8u, 33u}) {
    std::vector<Digest> leaves;
    for (std::size_t i = 0; i < n; ++i) {
      leaves.push_back(sha256("leaf" + std::to_string(i)));
    }
    ASSERT_TRUE(engine::select("scalar"));
    const Digest ref = oracle::merkle_root(leaves);
    for (const std::string& name : backends()) {
      ASSERT_TRUE(engine::select(name));
      EXPECT_EQ(MerkleTree(leaves).root(), ref)
          << "backend=" << name << " n=" << n;
    }
  }
}

// --- dispatcher semantics ----------------------------------------------------

TEST(Sha256Backends, SelectSemantics) {
  BackendGuard guard;
  // scalar and auto always resolve.
  EXPECT_TRUE(engine::select("scalar"));
  EXPECT_STREQ(engine::active().name, "scalar");
  EXPECT_TRUE(engine::select("auto"));
  // Unknown names are rejected and leave the active backend unchanged.
  const std::string before = engine::active().name;
  EXPECT_FALSE(engine::select("no-such-backend"));
  EXPECT_EQ(engine::active().name, before);
  // Every advertised backend is selectable and reports its own name.
  for (const std::string& name : backends()) {
    EXPECT_TRUE(engine::select(name));
    EXPECT_EQ(engine::active().name, name);
  }
}

TEST(Sha256Backends, AvailableAlwaysIncludesScalar) {
  const auto names = backends();
  ASSERT_FALSE(names.empty());
  EXPECT_EQ(names.front(), "scalar");
  // Advertised SIMD backends must match what the CPU supports.
  for (const std::string& name : names) {
    if (name == "shani") {
      EXPECT_TRUE(engine::cpu_has_shani());
    }
    if (name == "avx2") {
      EXPECT_TRUE(engine::cpu_has_avx2());
    }
  }
}

TEST(Sha256Backends, MultiLaneBackendsAdvertiseLanes) {
  BackendGuard guard;
  for (const std::string& name : backends()) {
    ASSERT_TRUE(engine::select(name));
    EXPECT_GE(engine::active().lanes, 1u);
    EXPECT_LE(engine::active().lanes, engine::kMaxLanes);
    if (name == "avx2") {
      EXPECT_EQ(engine::active().lanes, 8u);
    }
  }
}

}  // namespace
}  // namespace pera::crypto
