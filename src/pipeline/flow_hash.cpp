#include "pipeline/flow_hash.h"

namespace pera::pipeline {

namespace {

// Wire offsets of the standard eth(14)/ipv4(16)/l4 schema used by the
// canned programs (see dataplane::stdhdr): the simplified ipv4 header is
// ver_ihl(1) dscp(1) len(2) ttl(1) proto(1) csum(2) src(4) dst(4).
constexpr std::size_t kEthertypeOff = 12;
constexpr std::size_t kIpProtoOff = 19;
constexpr std::size_t kIpSrcOff = 22;
constexpr std::size_t kIpDstOff = 26;
constexpr std::size_t kL4Off = 30;
constexpr std::uint16_t kEthertypeIpv4 = 0x0800;
constexpr std::uint8_t kProtoTcp = 6;
constexpr std::uint8_t kProtoUdp = 17;

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::uint64_t fnv1a(std::uint64_t h, const std::uint8_t* data,
                    std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= kFnvPrime;
  }
  return h;
}

std::uint32_t read_be32(const crypto::Bytes& d, std::size_t off) {
  return (static_cast<std::uint32_t>(d[off]) << 24) |
         (static_cast<std::uint32_t>(d[off + 1]) << 16) |
         (static_cast<std::uint32_t>(d[off + 2]) << 8) |
         static_cast<std::uint32_t>(d[off + 3]);
}

std::uint16_t read_be16(const crypto::Bytes& d, std::size_t off) {
  return static_cast<std::uint16_t>((d[off] << 8) | d[off + 1]);
}

}  // namespace

FlowKey extract_flow_key(const dataplane::RawPacket& raw) {
  FlowKey key;
  const crypto::Bytes& d = raw.data;
  if (d.size() >= kIpDstOff + 4 &&
      read_be16(d, kEthertypeOff) == kEthertypeIpv4) {
    key.valid = true;
    key.proto = d[kIpProtoOff];
    key.src_ip = read_be32(d, kIpSrcOff);
    key.dst_ip = read_be32(d, kIpDstOff);
    if ((key.proto == kProtoTcp || key.proto == kProtoUdp) &&
        d.size() >= kL4Off + 4) {
      key.sport = read_be16(d, kL4Off);
      key.dport = read_be16(d, kL4Off + 2);
    }
    return key;
  }
  // Non-IPv4 / truncated frame: deterministic prefix hash.
  key.fallback = fnv1a(kFnvOffset, d.data(), d.size() < 32 ? d.size() : 32);
  return key;
}

std::uint64_t flow_hash(const FlowKey& key) {
  if (!key.valid) return key.fallback == 0 ? 1 : key.fallback;
  std::uint8_t tuple[13];
  tuple[0] = static_cast<std::uint8_t>(key.src_ip >> 24);
  tuple[1] = static_cast<std::uint8_t>(key.src_ip >> 16);
  tuple[2] = static_cast<std::uint8_t>(key.src_ip >> 8);
  tuple[3] = static_cast<std::uint8_t>(key.src_ip);
  tuple[4] = static_cast<std::uint8_t>(key.dst_ip >> 24);
  tuple[5] = static_cast<std::uint8_t>(key.dst_ip >> 16);
  tuple[6] = static_cast<std::uint8_t>(key.dst_ip >> 8);
  tuple[7] = static_cast<std::uint8_t>(key.dst_ip);
  tuple[8] = static_cast<std::uint8_t>(key.sport >> 8);
  tuple[9] = static_cast<std::uint8_t>(key.sport);
  tuple[10] = static_cast<std::uint8_t>(key.dport >> 8);
  tuple[11] = static_cast<std::uint8_t>(key.dport);
  tuple[12] = key.proto;
  const std::uint64_t h = fnv1a(kFnvOffset, tuple, sizeof(tuple));
  return h == 0 ? 1 : h;  // 0 is reserved as "no flow"
}

std::size_t shard_of(const dataplane::RawPacket& raw, std::size_t shards) {
  if (shards <= 1) return 0;
  return shard_of_flow(flow_hash(extract_flow_key(raw)), shards);
}

}  // namespace pera::pipeline
