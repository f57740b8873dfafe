#include "pera/cache.h"

#include <algorithm>

#include "obs/obs.h"

namespace pera::pera {

namespace {
constexpr nac::EvidenceDetail kLevels[] = {
    nac::EvidenceDetail::kHardware, nac::EvidenceDetail::kProgram,
    nac::EvidenceDetail::kTables, nac::EvidenceDetail::kProgState,
    nac::EvidenceDetail::kPacket};
}

std::optional<CachedEvidence> EvidenceCache::lookup(
    nac::DetailMask detail, const crypto::Nonce& nonce,
    const MeasurementUnit& mu, const crypto::Digest& variant) {
  if (!enabled_) {
    ++stats_.misses;
    PERA_OBS_COUNT("pera.cache.miss");
    return std::nullopt;
  }
  // Packet-level evidence is never cacheable by construction.
  if (nac::has_detail(detail, nac::EvidenceDetail::kPacket)) {
    ++stats_.misses;
    PERA_OBS_COUNT("pera.cache.miss");
    PERA_OBS_EVENT(obs::SpanKind::kCacheMiss, "pera.cache.uncacheable", 0,
                   detail);
    return std::nullopt;
  }
  const auto it = entries_.find(Key{detail, nonce.value, variant});
  if (it == entries_.end()) {
    ++stats_.misses;
    PERA_OBS_COUNT("pera.cache.miss");
    PERA_OBS_EVENT(obs::SpanKind::kCacheMiss, "pera.cache.cold", 0, detail);
    return std::nullopt;
  }
  for (const auto& [level, epoch] : it->second.epochs) {
    if (mu.epoch(level) != epoch) {
      ++stats_.misses;
      ++stats_.invalidations;
      entries_.erase(it);
      PERA_OBS_COUNT("pera.cache.miss");
      PERA_OBS_COUNT("pera.cache.invalidation");
      PERA_OBS_EVENT(obs::SpanKind::kCacheMiss, "pera.cache.invalidated", 0,
                     detail);
      return std::nullopt;
    }
  }
  ++stats_.hits;
  it->second.last_used = ++tick_;
  PERA_OBS_COUNT("pera.cache.hit");
  PERA_OBS_EVENT(obs::SpanKind::kCacheHit, "pera.cache", 0, detail);
  return it->second.evidence;
}

void EvidenceCache::store(nac::DetailMask detail, const crypto::Nonce& nonce,
                          CachedEvidence evidence,
                          const MeasurementUnit& mu,
                          const crypto::Digest& variant) {
  if (!enabled_) return;
  if (nac::has_detail(detail, nac::EvidenceDetail::kPacket)) return;
  Entry entry;
  entry.evidence = std::move(evidence);
  entry.last_used = ++tick_;
  for (nac::EvidenceDetail level : kLevels) {
    if (nac::has_detail(detail, level)) {
      entry.epochs[level] = mu.epoch(level);
    }
  }
  const Key key{detail, nonce.value, variant};
  if (entries_.size() >= kCapacity && !entries_.contains(key)) {
    entries_.erase(std::min_element(
        entries_.begin(), entries_.end(), [](const auto& a, const auto& b) {
          return a.second.last_used < b.second.last_used;
        }));
  }
  entries_[key] = std::move(entry);
  PERA_OBS_GAUGE("pera.cache.entries",
                 static_cast<std::int64_t>(entries_.size()));
}

}  // namespace pera::pera
