// Reference semantics for the dataplane's state, for differential tests
// and bench_state, written over public accessors only.
//
// Matching: a linear scan over Table::entries(). The winner is the
// highest-priority matching entry; ties go to the longest total LPM
// prefix, then to the first inserted (lowest index). Table::match must
// agree with it on every key, whichever path (exact-match index or scan)
// it takes.
//
// Digests: O(n) recomputes that rehash every leaf and build a fresh tree.
// Table::content_digest(), RegisterFile::state_digest() and
// DataplaneProgram::tables_digest() maintain theirs incrementally and must
// be bit-identical to these after any sequence of mutations.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "crypto/merkle.h"
#include "dataplane/packet.h"
#include "dataplane/program.h"

namespace pera::dataplane::oracle {

inline bool key_matches(const KeySpec& spec, const KeyMatch& m,
                        std::uint64_t value) {
  switch (spec.kind) {
    case MatchKind::kExact:
      return value == m.value;
    case MatchKind::kLpm: {
      if (m.prefix_len == 0) return true;
      const unsigned width = spec.width == 0 || spec.width > 64 ? 64 : spec.width;
      const unsigned plen = m.prefix_len > width ? width : m.prefix_len;
      const std::uint64_t mask =
          plen >= 64 ? ~0ULL
                     : (((std::uint64_t{1} << plen) - 1) << (width - plen));
      return (value & mask) == (m.value & mask);
    }
    case MatchKind::kTernary:
      return (value & m.mask) == (m.value & m.mask);
  }
  return false;
}

/// The winning entry for `key` (one value per KeySpec), or nullptr.
inline const TableEntry* lookup(const Table& t,
                                std::span<const std::uint64_t> key) {
  const TableEntry* best = nullptr;
  unsigned best_spec = 0;
  for (const TableEntry& e : t.entries()) {
    bool hit = true;
    unsigned spec = 0;
    for (std::size_t i = 0; i < t.keys().size() && hit; ++i) {
      hit = key_matches(t.keys()[i], e.keys[i], key[i]);
      if (t.keys()[i].kind == MatchKind::kLpm) spec += e.keys[i].prefix_len;
    }
    if (!hit) continue;
    if (best == nullptr || e.priority > best->priority ||
        (e.priority == best->priority && spec > best_spec)) {
      best = &e;
      best_spec = spec;
    }
  }
  return best;
}

/// The key a packet presents to `t`, read by name; nullopt when a keyed
/// header is absent (no entry can match such a packet).
inline std::optional<std::vector<std::uint64_t>> key_of(
    const Table& t, const ParsedPacket& pkt) {
  std::vector<std::uint64_t> key;
  for (const KeySpec& k : t.keys()) {
    if (k.field.header == "meta") {
      const Metadata& m = pkt.meta;
      const std::string& f = k.field.field;
      key.push_back(f == "ingress_port" ? m.ingress_port
                    : f == "egress_port" ? m.egress_port
                    : f == "packet_id"   ? m.packet_id
                    : f == "user0"       ? m.user0
                                         : m.user1);
    } else if (!pkt.has(k.field.header)) {
      return std::nullopt;
    } else {
      key.push_back(pkt.get(k.field.str()));
    }
  }
  return key;
}

/// Every entry leaf, then the default-action leaf.
inline crypto::Digest content_digest_full(const Table& t) {
  std::vector<crypto::Digest> leaves;
  leaves.reserve(t.entry_count() + 1);
  for (const TableEntry& e : t.entries()) {
    leaves.push_back(Table::entry_leaf(e));
  }
  leaves.push_back(Table::default_leaf(t.default_action(), t.default_params()));
  return crypto::MerkleTree(std::move(leaves)).root();
}

/// Per array in name order: its schema leaf, then one leaf per chunk.
inline crypto::Digest state_digest_full(const RegisterFile& regs) {
  std::vector<crypto::Digest> leaves;
  for (const std::string& name : regs.names()) {
    const std::vector<std::uint64_t>& values = regs.values(name);
    leaves.push_back(RegisterFile::schema_leaf(name, values.size()));
    const std::size_t chunks =
        (values.size() + RegisterFile::kChunkValues - 1) /
        RegisterFile::kChunkValues;
    for (std::size_t c = 0; c < chunks; ++c) {
      leaves.push_back(RegisterFile::chunk_leaf(values, c));
    }
  }
  return crypto::MerkleTree(std::move(leaves)).root();
}

/// A tree over every table's full content digest, in pipeline order.
inline crypto::Digest tables_digest_full(const DataplaneProgram& prog) {
  std::vector<crypto::Digest> leaves;
  leaves.reserve(prog.tables().size());
  for (const auto& t : prog.tables()) leaves.push_back(content_digest_full(*t));
  return crypto::MerkleTree(std::move(leaves)).root();
}

}  // namespace pera::dataplane::oracle
