// Inertia-aware evidence cache (§5.2: "High-inertia attestations are more
// easily cached since they take longer to expire").
//
// A cached entry records the epoch of every detail level it covers; it is
// valid while all those epochs are unchanged. Nonce-bound evidence keys on
// the nonce too — fresh challenges intentionally defeat caching, which is
// exactly the freshness/overhead trade-off Fig. 4 describes. A finished
// nonce round's entries are never read again, so the cache holds at most
// kCapacity entries and evicts the least recently used one.
#pragma once

#include <map>
#include <memory>
#include <optional>

#include "copland/evidence.h"
#include "crypto/nonce.h"
#include "nac/detail.h"
#include "pera/measurement.h"

namespace pera::pera {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t invalidations = 0;  // misses caused by epoch change

  [[nodiscard]] double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

/// Cached evidence for one (detail, nonce, variant) slot: the term and
/// its canonical encoding, shared so a hit hands both out without
/// copying or encoding.
struct CachedEvidence {
  copland::EvidencePtr evidence;
  std::shared_ptr<const crypto::Bytes> encoded;
};

class EvidenceCache {
 public:
  /// Most entries held at once, however many distinct nonces arrive. A
  /// nonce round fills one slot per (detail, variant) it asks for.
  static constexpr std::size_t kCapacity = 8;

  explicit EvidenceCache(bool enabled = true) : enabled_(enabled) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Look up cached evidence for (detail mask, nonce, instruction
  /// variant). Returns the cached evidence when present and every covered
  /// level's epoch still matches. `variant` disambiguates instructions
  /// with equal detail but different hash/sign flags or custom targets.
  [[nodiscard]] std::optional<CachedEvidence> lookup(
      nac::DetailMask detail, const crypto::Nonce& nonce,
      const MeasurementUnit& mu, const crypto::Digest& variant = {});

  /// Store evidence with the current epochs of its covered levels.
  void store(nac::DetailMask detail, const crypto::Nonce& nonce,
             CachedEvidence evidence, const MeasurementUnit& mu,
             const crypto::Digest& variant = {});

  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = CacheStats{}; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  void clear() { entries_.clear(); }

 private:
  struct Key {
    nac::DetailMask detail;
    crypto::Digest nonce;
    crypto::Digest variant;
    auto operator<=>(const Key&) const = default;
  };
  struct Entry {
    CachedEvidence evidence;
    std::map<nac::EvidenceDetail, std::uint64_t> epochs;
    std::uint64_t last_used = 0;  // tick of the latest store or hit
  };

  bool enabled_;
  std::map<Key, Entry> entries_;
  std::uint64_t tick_ = 0;
  CacheStats stats_;
};

}  // namespace pera::pera
