// RSS-style flow classification for the sharded pipeline dispatcher.
//
// The dispatcher reads the 5-tuple straight out of the raw wire bytes
// (like a NIC RSS engine — no full parse) and hashes it to pick a shard.
// Every packet of a flow lands on the same shard, which is what preserves
// per-flow evidence ordering and makes chained composition shard-invariant.
#pragma once

#include <compare>
#include <cstdint>

#include "dataplane/packet.h"

namespace pera::pipeline {

/// Canonical 5-tuple-ish flow key. For non-IPv4 (or truncated) packets
/// `valid` is false and the key degrades to a prefix hash of the frame,
/// so odd traffic still spreads deterministically.
struct FlowKey {
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;
  std::uint16_t sport = 0;
  std::uint16_t dport = 0;
  std::uint8_t proto = 0;
  bool valid = false;
  std::uint64_t fallback = 0;  // prefix hash when !valid

  friend auto operator<=>(const FlowKey&, const FlowKey&) = default;
};

/// Extract the flow key from raw wire bytes (eth/ipv4/tcp-or-udp offsets
/// of the standard schema; ports read only for TCP/UDP).
[[nodiscard]] FlowKey extract_flow_key(const dataplane::RawPacket& raw);

/// 64-bit mix of a flow key (FNV-1a over the canonical tuple encoding).
[[nodiscard]] std::uint64_t flow_hash(const FlowKey& key);

/// Reduce a flow hash onto `shards` workers. Multiply-shift spreads the
/// FNV output evenly, without the modulo bias of `h % shards` on
/// sequential tuples.
[[nodiscard]] inline std::size_t shard_of_flow(std::uint64_t flow,
                                               std::size_t shards) {
  return static_cast<std::size_t>(
      (static_cast<unsigned __int128>(flow) * shards) >> 64);
}

/// Convenience: hash the raw packet and reduce onto `shards` workers.
[[nodiscard]] std::size_t shard_of(const dataplane::RawPacket& raw,
                                   std::size_t shards);

}  // namespace pera::pipeline
