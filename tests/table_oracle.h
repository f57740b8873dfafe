// Reference match semantics for dataplane::Table, for differential tests
// and bench_state: a linear scan over Table::entries(). The winner is the
// highest-priority matching entry; ties go to the longest total LPM
// prefix, then to the first inserted (lowest index). Table::match must
// agree with it on every key, whichever path (exact-match index or scan)
// it takes.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dataplane/packet.h"
#include "dataplane/table.h"

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

}  // namespace pera::dataplane::oracle
