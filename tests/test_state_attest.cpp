// Incremental state attestation: the MerkleTree node store, the
// dirty-leaf Table / dirty-chunk RegisterFile digests built on it, the
// exact-match lookup index, and the measurement-epoch semantics that make
// evidence caching sound. The core obligation everywhere: the incremental
// paths are *bit-identical* to the O(n) reference recomputes, under
// arbitrary operation sequences.
#include <gtest/gtest.h>

#include <random>

#include "crypto/merkle.h"
#include "dataplane/builder.h"
#include "dataplane/nf.h"
#include "dataplane/program.h"
#include "pera/measurement.h"
#include "merkle_oracle.h"
#include "table_oracle.h"

namespace pera {
namespace {

crypto::Digest leaf_of(std::uint64_t i) {
  crypto::Bytes b;
  crypto::append_u64(b, i);
  return crypto::sha256(crypto::BytesView{b.data(), b.size()});
}

// --- MerkleTree: incremental recompute -------------------------------------

TEST(IncMerkle, EmptyTreeHasZeroRoot) {
  crypto::MerkleTree t;
  EXPECT_EQ(t.root(), crypto::Digest{});
  EXPECT_EQ(t.leaf_count(), 0u);
}

TEST(IncMerkle, MatchesReferenceAtEverySize) {
  crypto::MerkleTree t;
  std::vector<crypto::Digest> leaves;
  for (std::uint64_t i = 0; i < 40; ++i) {
    leaves.push_back(leaf_of(i));
    t.append_leaf(leaves.back());
    ASSERT_EQ(t.root(), crypto::oracle::merkle_root(leaves))
        << "size " << i + 1;
  }
}

TEST(IncMerkle, SetLeafRecomputesOnlyThePath) {
  crypto::MerkleTree t;
  std::vector<crypto::Digest> leaves;
  for (std::uint64_t i = 0; i < 1024; ++i) {
    leaves.push_back(leaf_of(i));
  }
  t.assign(leaves);
  (void)t.root();
  const std::uint64_t before = t.stats().nodes_rehashed;
  t.set_leaf(17, leaf_of(9999));
  leaves[17] = leaf_of(9999);
  EXPECT_EQ(t.root(), crypto::oracle::merkle_root(leaves));
  // One dirty leaf in a 1024-leaf tree: exactly one parent per level.
  EXPECT_EQ(t.stats().nodes_rehashed - before, 10u);
}

TEST(IncMerkle, AppendToFlushedPowerOfTwoTreeHashesOnlyTheNewRoot) {
  // The new leaf is promoted unpaired up to the old root's level, where it
  // pairs with the old root: one hash, whatever the tree's size.
  for (std::size_t n = 2; n <= 1024; n *= 2) {
    crypto::MerkleTree t;
    std::vector<crypto::Digest> leaves;
    for (std::uint64_t i = 0; i < n; ++i) leaves.push_back(leaf_of(i));
    t.assign(leaves);
    (void)t.root();
    const std::uint64_t before = t.stats().nodes_rehashed;
    leaves.push_back(leaf_of(n));
    t.append_leaf(leaves.back());
    EXPECT_EQ(t.root(), crypto::oracle::merkle_root(leaves)) << n;
    EXPECT_EQ(t.stats().nodes_rehashed - before, 1u) << n;
  }
}

TEST(IncMerkle, NoOpSetLeafKeepsTreeClean) {
  crypto::MerkleTree t;
  t.append_leaf(leaf_of(1));
  t.append_leaf(leaf_of(2));
  (void)t.root();
  EXPECT_FALSE(t.dirty());
  t.set_leaf(0, leaf_of(1));  // same value
  EXPECT_FALSE(t.dirty());
}

TEST(IncMerkle, SetLeafOutOfRangeThrows) {
  crypto::MerkleTree t;
  EXPECT_THROW(t.set_leaf(0, leaf_of(0)), std::out_of_range);
  t.append_leaf(leaf_of(0));
  EXPECT_THROW(t.set_leaf(1, leaf_of(0)), std::out_of_range);
}

TEST(IncMerkle, RandomizedDifferentialAgainstReference) {
  std::mt19937_64 rng(42);
  crypto::MerkleTree t;
  std::vector<crypto::Digest> ref;
  std::uint64_t salt = 0;
  for (int step = 0; step < 3000; ++step) {
    const unsigned op = rng() % 10;
    if (op < 4 || ref.empty()) {  // append
      ref.push_back(leaf_of(salt));
      t.append_leaf(leaf_of(salt));
      ++salt;
    } else if (op < 8) {  // set
      const std::size_t i = rng() % ref.size();
      ref[i] = leaf_of(salt);
      t.set_leaf(i, leaf_of(salt));
      ++salt;
    } else if (op == 8) {  // truncate
      const std::size_t keep = rng() % (ref.size() + 1);
      ref.resize(keep);
      t.truncate(keep);
    }
    if (op == 9 || step % 37 == 0) {
      ASSERT_EQ(t.root(), crypto::oracle::merkle_root(ref))
          << "step " << step;
    }
  }
  EXPECT_EQ(t.root(), crypto::oracle::merkle_root(ref));
  EXPECT_GT(t.stats().nodes_rehashed, 0u);
}

// --- Table: incremental content digest + exact-match index ----------------

dataplane::TableEntry exact_entry(std::uint64_t dst, std::uint64_t port,
                                  std::uint32_t priority = 0) {
  dataplane::TableEntry e;
  e.keys = {dataplane::KeyMatch::exact(dst)};
  e.priority = priority;
  e.action = "forward";
  e.action_params = {port};
  return e;
}

TEST(StateAttestTable, IncrementalDigestMatchesFullUnderRandomOps) {
  std::mt19937_64 rng(7);
  dataplane::Table t("t", {dataplane::KeySpec{
                              {"ipv4", "dst"}, dataplane::MatchKind::kExact}});
  std::uint64_t salt = 0;
  for (int step = 0; step < 1500; ++step) {
    const unsigned op = rng() % 8;
    if (op < 4 || t.entry_count() == 0) {
      t.add_entry(exact_entry(salt, salt % 8));
      ++salt;
    } else if (op < 6) {
      (void)t.remove_entry(rng() % t.entry_count());
    } else if (op == 6) {
      t.entry_mut(rng() % t.entry_count()).action_params = {salt++};
    } else {
      t.set_default(salt % 2 == 0 ? "drop" : "forward", {salt % 4});
      ++salt;
    }
    if (step % 11 == 0) {
      ASSERT_EQ(t.content_digest(), dataplane::oracle::content_digest_full(t))
          << "step " << step;
    }
  }
  EXPECT_EQ(t.content_digest(), dataplane::oracle::content_digest_full(t));
}

TEST(StateAttestTable, DigestUnchangedByLookups) {
  auto prog = dataplane::make_acl();
  dataplane::Table* allow = prog->table("allow");
  const crypto::Digest before = allow->content_digest();
  const std::uint64_t rev = allow->revision();
  dataplane::PisaSwitch sw(prog);
  for (int i = 0; i < 5; ++i) {
    (void)sw.process(dataplane::make_tcp_packet({}));
  }
  EXPECT_EQ(allow->content_digest(), before);  // hit counters not attested
  EXPECT_EQ(allow->revision(), rev);
}

TEST(StateAttestTable, RemoveEntryReportsMovedIndex) {
  dataplane::Table t("t", {dataplane::KeySpec{
                              {"ipv4", "dst"}, dataplane::MatchKind::kExact}});
  t.add_entry(exact_entry(10, 1));
  t.add_entry(exact_entry(20, 2));
  t.add_entry(exact_entry(30, 3));
  // Removing the middle entry swaps the last one in.
  EXPECT_EQ(t.remove_entry(1), 2u);
  EXPECT_EQ(t.entries()[1].keys[0].value, 30u);
  // Removing the last entry moves nothing.
  EXPECT_EQ(t.remove_entry(1), 1u);
  EXPECT_EQ(t.entry_count(), 1u);
  EXPECT_THROW((void)t.remove_entry(5), std::out_of_range);
}

TEST(StateAttestTable, ExactIndexAgreesWithScan) {
  std::mt19937_64 rng(11);
  dataplane::Table t("t",
                     {dataplane::KeySpec{{"ipv4", "dst"},
                                         dataplane::MatchKind::kExact},
                      dataplane::KeySpec{{"tcp", "dport"},
                                         dataplane::MatchKind::kExact}});
  EXPECT_TRUE(t.exact_indexed());
  for (std::uint64_t i = 0; i < 300; ++i) {
    dataplane::TableEntry e;
    e.keys = {dataplane::KeyMatch::exact(0x0a000000 + i % 200),
              dataplane::KeyMatch::exact(1000 + i % 7)};
    e.priority = static_cast<std::uint32_t>(rng() % 3);  // force dup keys
    e.action = "forward";
    e.action_params = {i};
    t.add_entry(std::move(e));
  }
  for (int probe = 0; probe < 500; ++probe) {
    const std::vector<std::uint64_t> key = {0x0a000000 + rng() % 220,
                                            1000 + rng() % 9};
    ASSERT_EQ(t.lookup(key), dataplane::oracle::lookup(t, key))
        << "probe " << probe;
  }
  // Churn and retry: the index must rebuild after structural changes.
  for (int i = 0; i < 100; ++i) (void)t.remove_entry(rng() % t.entry_count());
  for (int probe = 0; probe < 200; ++probe) {
    const std::vector<std::uint64_t> key = {0x0a000000 + rng() % 220,
                                            1000 + rng() % 9};
    ASSERT_EQ(t.lookup(key), dataplane::oracle::lookup(t, key))
        << "post-churn " << probe;
  }
}

// Table::match against the reference scan (tests/table_oracle.h) under
// add / remove / entry_mut churn. Keys and priorities come from small
// domains so that priority ties, equal-specificity LPM ties and duplicate
// exact keys occur often: the first-inserted (lowest index) entry must
// win them, on the exact-match index path and the scan path alike.
void differential(std::vector<dataplane::KeySpec> specs, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  dataplane::Table t("t", specs);
  const auto random_match = [&](const dataplane::KeySpec& k) {
    switch (k.kind) {
      case dataplane::MatchKind::kExact:
        return dataplane::KeyMatch::exact(rng() % 6);
      case dataplane::MatchKind::kLpm:
        return dataplane::KeyMatch::lpm((rng() % 4) << 12 | (rng() % 4) << 8,
                                        static_cast<unsigned>(4 * (rng() % 5)));
      case dataplane::MatchKind::kTernary: {
        const std::uint64_t masks[] = {0, 0x3, 0xf, 0xffff};
        return dataplane::KeyMatch::ternary(rng() % 6, masks[rng() % 4]);
      }
    }
    return dataplane::KeyMatch::wildcard();
  };
  const auto random_entry = [&] {
    dataplane::TableEntry e;
    for (const auto& k : specs) e.keys.push_back(random_match(k));
    e.priority = static_cast<std::uint32_t>(rng() % 3);
    e.action = "a" + std::to_string(rng() % 4);
    return e;
  };
  const auto random_key = [&] {
    std::vector<std::uint64_t> key;
    for (const auto& k : specs) {
      key.push_back(k.kind == dataplane::MatchKind::kLpm
                        ? (rng() % 4) << 12 | (rng() % 4) << 8 | rng() % 16
                        : rng() % 6);
    }
    return key;
  };
  for (int round = 0; round < 60; ++round) {
    const std::uint64_t op = rng() % 10;
    if (op < 5 || t.entry_count() == 0) {
      t.add_entry(random_entry());
    } else if (op < 7) {
      (void)t.remove_entry(rng() % t.entry_count());
    } else {
      t.entry_mut(rng() % t.entry_count()) = random_entry();
    }
    for (int probe = 0; probe < 25; ++probe) {
      const std::vector<std::uint64_t> key = random_key();
      ASSERT_EQ(t.lookup(key), dataplane::oracle::lookup(t, key))
          << "round " << round << " probe " << probe;
    }
  }
}

TEST(StateAttestTable, MatchAgreesWithOracleExact) {
  differential({dataplane::KeySpec{{"ipv4", "dst"}, dataplane::MatchKind::kExact},
                dataplane::KeySpec{{"tcp", "dport"}, dataplane::MatchKind::kExact}},
               21);
}

TEST(StateAttestTable, MatchAgreesWithOracleLpm) {
  differential({dataplane::KeySpec{{"ipv4", "dst"}, dataplane::MatchKind::kLpm, 16}},
               22);
}

TEST(StateAttestTable, MatchAgreesWithOracleTernary) {
  differential(
      {dataplane::KeySpec{{"ipv4", "src"}, dataplane::MatchKind::kTernary},
       dataplane::KeySpec{{"tcp", "dport"}, dataplane::MatchKind::kTernary}},
      23);
}

TEST(StateAttestTable, MatchAgreesWithOracleMixed) {
  differential(
      {dataplane::KeySpec{{"meta", "ingress_port"}, dataplane::MatchKind::kExact},
       dataplane::KeySpec{{"ipv4", "dst"}, dataplane::MatchKind::kLpm, 16},
       dataplane::KeySpec{{"tcp", "dport"}, dataplane::MatchKind::kTernary}},
      24);
}

TEST(StateAttestTable, MixedMatchTablesAreNotIndexed) {
  auto prog = dataplane::make_firewall();
  EXPECT_FALSE(prog->table("acl")->exact_indexed());   // ternary keys
  EXPECT_FALSE(prog->table("route")->exact_indexed()); // LPM key
  EXPECT_TRUE(dataplane::make_acl()->table("allow")->exact_indexed());
}

TEST(StateAttestTable, IndexedLookupMissesWhenHeaderAbsent) {
  auto prog = std::make_shared<dataplane::DataplaneProgram>(
      "p", "v1", dataplane::standard_parser());
  prog->add_action(dataplane::stdaction::forward());
  dataplane::Table& t = prog->add_table(
      "t", {dataplane::KeySpec{{"tcp", "dport"}, dataplane::MatchKind::kExact}});
  t.add_entry(exact_entry(443, 1));
  t.set_default("forward", {9});
  ASSERT_TRUE(t.exact_indexed());
  dataplane::PisaSwitch sw(prog);
  dataplane::RawPacket arp;  // no tcp header at all
  arp.data = dataplane::pack_header(dataplane::stdhdr::ethernet(),
                                    {1, 2, 0x0806});
  const auto out = sw.process(arp);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->port, 9u);
  EXPECT_EQ(sw.stats().table_hits, 0u);
  EXPECT_EQ(t.entries()[0].hit_count, 0u);
}

// --- RegisterFile: dirty-chunk incremental digests ------------------------

TEST(StateAttestRegisters, IncrementalDigestMatchesFullUnderRandomWrites) {
  std::mt19937_64 rng(13);
  dataplane::RegisterFile regs;
  regs.declare("a", 1000);   // ~16 chunks
  regs.declare("b", 64);     // exactly 1 chunk
  regs.declare("c", 65);     // chunk boundary + 1
  for (int step = 0; step < 400; ++step) {
    const char* name = (rng() % 3 == 0) ? "a" : (rng() % 2 == 0 ? "b" : "c");
    const std::size_t size = regs.size(name);
    regs.write(name, rng() % size, rng());
    if (step % 7 == 0) {
      ASSERT_EQ(regs.state_digest(),
                dataplane::oracle::state_digest_full(regs))
          << "step " << step;
    }
    if (step == 200) regs.declare("d", 10);  // mid-sequence re-layout
  }
  EXPECT_EQ(regs.state_digest(), dataplane::oracle::state_digest_full(regs));
}

TEST(StateAttestRegisters, NoOpWriteLeavesEvidenceValid) {
  dataplane::RegisterFile regs;
  regs.declare("r", 128);
  regs.write("r", 5, 77);
  const crypto::Digest d = regs.state_digest();
  const std::uint64_t writes = regs.write_count();
  const std::uint64_t rev = regs.revision();
  regs.write("r", 5, 77);  // same value: must not invalidate anything
  EXPECT_EQ(regs.write_count(), writes);
  EXPECT_EQ(regs.revision(), rev);
  EXPECT_EQ(regs.state_digest(), d);
  regs.write("r", 5, 78);  // real change
  EXPECT_EQ(regs.write_count(), writes + 1);
  EXPECT_GT(regs.revision(), rev);
  EXPECT_NE(regs.state_digest(), d);
}

TEST(StateAttestRegisters, RedeclareChangesDigest) {
  dataplane::RegisterFile regs;
  regs.declare("r", 64);
  const crypto::Digest d64 = regs.state_digest();
  regs.declare("r", 128);  // schema leaf changes even though values are 0
  EXPECT_NE(regs.state_digest(), d64);
  EXPECT_EQ(regs.state_digest(), dataplane::oracle::state_digest_full(regs));
}

// --- Measurement epochs ---------------------------------------------------

class StateAttestEpochs : public ::testing::Test {
 protected:
  StateAttestEpochs()
      : sw_(dataplane::make_monitor()),
        mu_({.serial = "epoch-test"}, sw_) {}

  crypto::Digest measure(nac::EvidenceDetail level) {
    return mu_.measure(level);
  }
  std::uint64_t epoch(nac::EvidenceDetail level) { return mu_.epoch(level); }

  dataplane::PisaSwitch sw_;
  pera::MeasurementUnit mu_;
};

TEST_F(StateAttestEpochs, EpochAdvancesExactlyWhenDigestCanChange) {
  std::mt19937_64 rng(17);
  dataplane::Table* mon = sw_.program().table("monitor");
  std::uint64_t salt = 1;
  for (int step = 0; step < 300; ++step) {
    const auto t_epoch = epoch(nac::EvidenceDetail::kTables);
    const auto t_dig = measure(nac::EvidenceDetail::kTables);
    const auto s_epoch = epoch(nac::EvidenceDetail::kProgState);
    const auto s_dig = measure(nac::EvidenceDetail::kProgState);
    switch (rng() % 6) {
      case 0:
        mon->add_entry(exact_entry(9000 + salt, 1));
        ++salt;
        break;
      case 1:
        if (mon->entry_count() > 0) {
          (void)mon->remove_entry(rng() % mon->entry_count());
        }
        break;
      case 2:
        if (mon->entry_count() > 0) {
          mon->entry_mut(rng() % mon->entry_count()).action_params = {salt++,
                                                                      1};
        }
        break;
      case 3:
        sw_.registers().write("port_counts", rng() % 1024, salt++);
        break;
      case 4:  // lookups only: nothing measured may change
        (void)sw_.process(dataplane::make_tcp_packet({}));
        break;
      case 5:  // no-op register write: nothing measured may change
        sw_.registers().write(
            "port_counts", 3, sw_.registers().read("port_counts", 3));
        break;
    }
    // Soundness: a changed digest MUST change the epoch (else caches serve
    // stale evidence). Precision: an unchanged digest should not advance
    // the tables/state epoch for lookups and no-op writes.
    if (measure(nac::EvidenceDetail::kTables) != t_dig) {
      ASSERT_NE(epoch(nac::EvidenceDetail::kTables), t_epoch) << step;
    }
    if (measure(nac::EvidenceDetail::kProgState) != s_dig) {
      ASSERT_NE(epoch(nac::EvidenceDetail::kProgState), s_epoch) << step;
    }
  }
}

TEST_F(StateAttestEpochs, ReadOnlyTrafficKeepsEpochsStable) {
  const auto t_epoch = epoch(nac::EvidenceDetail::kTables);
  for (int i = 0; i < 10; ++i) {
    dataplane::PacketSpec spec;
    spec.dport = 25;  // misses the monitor table's register action
    (void)sw_.process(dataplane::make_tcp_packet(spec));
  }
  EXPECT_EQ(epoch(nac::EvidenceDetail::kTables), t_epoch);
}

TEST_F(StateAttestEpochs, ProgramSwapAdvancesAllMutableEpochs) {
  const auto t_epoch = epoch(nac::EvidenceDetail::kTables);
  const auto s_epoch = epoch(nac::EvidenceDetail::kProgState);
  sw_.load_program(dataplane::make_router());
  mu_.on_program_loaded();
  EXPECT_NE(epoch(nac::EvidenceDetail::kTables), t_epoch);
  EXPECT_NE(epoch(nac::EvidenceDetail::kProgState), s_epoch);
}

// --- StatefulNat workload -------------------------------------------------

TEST(StateAttestNat, TranslatesBoundFlowsAndDropsUnbound) {
  dataplane::StatefulNat nat({.capacity = 16, .idle_timeout = 10});
  const dataplane::FlowKey k{0x0a000101, 40001};
  const std::size_t slot = nat.add_flow(k, 1);

  auto out = nat.sw().process(nat.make_packet(k));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->port, nat.config().wan_port);
  dataplane::ParsedPacket parsed = nat.sw().parse(*out);
  EXPECT_EQ(parsed.get("ipv4.src"), nat.config().external_ip);
  EXPECT_EQ(parsed.get("tcp.sport"), nat.config().port_base + slot);

  EXPECT_FALSE(
      nat.sw().process(nat.make_packet({0x0a000102, 40002})).has_value());
}

TEST(StateAttestNat, ExpiryEvictsIdleFlowsLruFirst) {
  dataplane::StatefulNat nat({.capacity = 8, .idle_timeout = 10});
  nat.add_flow({1, 1}, 0);
  nat.add_flow({2, 2}, 5);
  nat.add_flow({3, 3}, 9);
  EXPECT_TRUE(nat.touch_flow({1, 1}, 12));  // refresh the oldest
  EXPECT_EQ(nat.expire_flows(16), 1u);      // only {2,2} is idle >= 10
  EXPECT_TRUE(nat.has_flow({1, 1}));
  EXPECT_FALSE(nat.has_flow({2, 2}));
  EXPECT_TRUE(nat.has_flow({3, 3}));
  EXPECT_EQ(nat.flow_count(), 2u);
}

TEST(StateAttestNat, CapacityEvictionReusesSlots) {
  dataplane::StatefulNat nat({.capacity = 4, .idle_timeout = 1000});
  for (std::uint16_t i = 0; i < 4; ++i) {
    nat.add_flow({100, static_cast<std::uint16_t>(1000 + i)}, i);
  }
  EXPECT_EQ(nat.flow_count(), 4u);
  nat.add_flow({200, 2000}, 10);  // evicts LRU = {100,1000}
  EXPECT_EQ(nat.flow_count(), 4u);
  EXPECT_FALSE(nat.has_flow({100, 1000}));
  EXPECT_TRUE(nat.has_flow({200, 2000}));
}

TEST(StateAttestNat, ChurnKeepsIncrementalAndFullDigestsIdentical) {
  std::mt19937_64 rng(23);
  dataplane::StatefulNat nat({.capacity = 600, .idle_timeout = 50});
  std::uint64_t now = 0;
  std::uint64_t salt = 0;
  for (int round = 0; round < 30; ++round) {
    for (int i = 0; i < 20; ++i) {
      nat.add_flow({static_cast<std::uint32_t>(salt / 60000),
                    static_cast<std::uint16_t>(salt % 60000)},
                   now);
      ++salt;
    }
    for (int i = 0; i < 10; ++i) {
      (void)nat.touch_flow({static_cast<std::uint32_t>(rng() % (salt / 60000 + 1)),
                            static_cast<std::uint16_t>(rng() % 60000)},
                           now);
    }
    now += 10;
    (void)nat.expire_flows(now);
    const auto& prog = nat.sw().program();
    ASSERT_EQ(prog.tables_digest(), dataplane::oracle::tables_digest_full(prog))
        << round;
    ASSERT_EQ(nat.sw().registers().state_digest(),
              dataplane::oracle::state_digest_full(nat.sw().registers()))
        << round;
  }
  EXPECT_GT(nat.flow_count(), 0u);
}

}  // namespace
}  // namespace pera
