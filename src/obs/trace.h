// Structured trace sink — typed span events from the PERA pipeline,
// ring-buffered with drop accounting.
//
// Every event carries the simulated-clock timestamp at which it was
// recorded (netsim drives the clock; outside a simulation the clock
// stays where it was last set, typically 0) plus a process-wide
// monotonic sequence number, so traces order deterministically even when
// many events share a sim timestamp.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "netsim/time.h"

namespace pera::obs {

/// The span taxonomy (docs/OBSERVABILITY.md §2). One kind per
/// evidence-pipeline stage of Fig. 3 plus the wire/netsim boundaries.
enum class SpanKind : std::uint8_t {
  kMeasure,          // measurement unit reads one detail level
  kCacheHit,         // evidence cache returned a valid entry
  kCacheMiss,        // lookup missed (includes epoch invalidations)
  kSampleDecision,   // sampler chose attest (value=1) or skip (value=0)
  kEvidenceCreate,   // engine Create (Fig. 3 block E)
  kEvidenceCompose,  // engine Compose
  kSign,             // sign unit (Fig. 3 block D)
  kVerify,           // signature verification
  kAppraise,         // appraiser verdict over evidence
  kWireEncode,       // protocol message serialized
  kWireDecode,       // protocol message parsed
  kEpochBump,        // a switch's program/tables epoch advanced (value =
                     // new epoch) — correlate with later appraisal failures
  kTrustTransition,  // ctrl trust state machine moved (value = new state)
};

[[nodiscard]] const char* to_string(SpanKind k);

struct SpanEvent {
  SpanKind kind = SpanKind::kMeasure;
  std::string name;               // site label: place, metric path, msg type
  netsim::SimTime at = 0;         // sim clock when recorded
  netsim::SimTime duration = 0;   // simulated cost attributed to the span
  std::uint64_t value = 0;        // kind-specific payload (bytes, flags...)
  std::uint64_t seq = 0;          // stamped by TraceSink::record
};

/// Fixed-capacity ring. When full, the oldest event is overwritten and
/// counted as dropped — the tail of a long run is always retained.
class TraceSink {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit TraceSink(std::size_t capacity = kDefaultCapacity);

  /// Resize the ring; clears buffered events and drop accounting.
  void set_capacity(std::size_t capacity);
  [[nodiscard]] std::size_t capacity() const;

  void record(SpanEvent ev);

  [[nodiscard]] std::size_t size() const;        // events currently held
  [[nodiscard]] std::uint64_t recorded() const;  // total ever recorded
  [[nodiscard]] std::uint64_t dropped() const;   // overwritten (lost)

  /// Buffered events, oldest first.
  [[nodiscard]] std::vector<SpanEvent> snapshot() const;

  void clear();

  /// {"capacity":..,"recorded":..,"dropped":..,"events":[...]}
  [[nodiscard]] std::string to_json() const;

 private:
  mutable std::mutex mu_;
  std::vector<SpanEvent> ring_;
  std::size_t capacity_;
  std::size_t head_ = 0;  // next write slot
  std::size_t size_ = 0;
  std::uint64_t recorded_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace pera::obs
