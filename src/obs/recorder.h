// The span recorder: trace events and pipeline stage attribution in one
// per-thread slot store (docs/OBSERVABILITY.md §1-3).
//
// Each recording thread owns a cache-line-aligned slot, claimed by CAS on
// its first event or stage registration. The slot holds a lock-free ring
// of fixed-size event records (kind, interned name id, sim time, duration,
// value, seq) and the stage accumulators: a registered thread is always in
// exactly one Stage, and wall ns and transitions add up per stage (as in
// NFOS's scalability profiler). A process-wide atomic seq orders events;
// export merges the slots by it.
//
// Each thread keeps its newest trace_capacity() events; overwritten ones
// count as dropped, so recorded == events + dropped. A slot outlives its
// thread. When every slot is taken, the next claimer recycles the slot
// whose thread exited first, and that slot's events count as dropped.
//
// Toggles, both off by default: obs::set_enabled (events, metrics) and
// set_stages_enabled. With both off no slot is claimed and no ring is
// allocated; each site costs one relaxed load or TLS check.
#pragma once

#include <cstddef>
#include <cstdint>
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
  kEpochBump,        // program/tables epoch advanced (value = new epoch)
  kTrustTransition,  // ctrl trust state machine moved (value = new state)
};

[[nodiscard]] const char* to_string(SpanKind k);

/// One exported event. `name` views the process-lifetime intern table.
struct SpanEvent {
  SpanKind kind = SpanKind::kMeasure;
  std::string_view name;          // site label: place, metric path, msg type
  netsim::SimTime at = 0;         // sim clock when recorded
  netsim::SimTime duration = 0;   // simulated cost attributed to the span
  std::uint64_t value = 0;        // kind-specific payload (bytes, flags...)
  std::uint64_t seq = 0;          // process-wide record order
};

/// Id of `name` in the process-wide intern table.
[[nodiscard]] std::uint32_t intern(std::string_view name);

/// Append one event to the calling thread's ring (when obs is enabled).
void record(SpanKind kind, std::uint32_t name, netsim::SimTime duration,
            std::uint64_t value);

inline constexpr std::size_t kDefaultTraceCapacity = 4096;

/// Resize every thread's ring and clear the trace. Call between runs.
/// Throws std::invalid_argument on 0.
void set_trace_capacity(std::size_t per_thread);
[[nodiscard]] std::size_t trace_capacity();

struct TraceStats {
  std::uint64_t recorded = 0;  // since the last clear
  std::uint64_t dropped = 0;   // overwritten, recycled or unrecordable
  std::size_t events = 0;      // buffered: recorded - dropped
  std::size_t slots = 0;       // slots claimed
  std::size_t rings = 0;       // event rings allocated
};

/// Buffered events of every thread, merged by seq.
[[nodiscard]] std::vector<SpanEvent> trace_snapshot(TraceStats* st = nullptr);
[[nodiscard]] inline TraceStats trace_stats() {
  TraceStats st;
  (void)trace_snapshot(&st);
  return st;
}

/// {"capacity":..,"recorded":..,"dropped":..,"events":[...]}
[[nodiscard]] std::string trace_json();

/// Pipeline stages (docs/ARCHITECTURE.md §3): dispatch (flow hash + ring
/// push), ring_transit (blocked on a ring), shard_work (PeraSwitch::process),
/// reassembly (appraiser bucketing, ordering, folding), wots_verify
/// (signature checks), merge (cross-appraiser verdict merge) and idle.
enum class Stage : std::uint8_t {
  kDispatch, kRingTransit, kShardWork, kReassembly, kWotsVerify, kMerge, kIdle
};
inline constexpr std::size_t kStageCount = 7;

[[nodiscard]] bool stages_enabled();
void set_stages_enabled(bool on);

/// Zero every slot's stage totals and end every registration (live
/// threads go quiet until they register again). Events are kept.
void reset_stages();

/// Register the calling thread under `role` (e.g. "shard3") in stage
/// `initial`. No-op when stages are disabled or every slot is live.
void thread_begin(std::string_view role, Stage initial);

/// Close the calling thread's attribution window. Idempotent.
void thread_end();

/// Switch the calling thread's stage, attributing the elapsed wall time
/// to the stage it was in. Cheap no-op when unregistered.
void enter_stage(Stage s);

/// Enters `s`; restores the previous stage on scope exit.
class ScopedStage {
 public:
  explicit ScopedStage(Stage s);
  ScopedStage(const ScopedStage&) = delete;
  ScopedStage& operator=(const ScopedStage&) = delete;
  ~ScopedStage();

 private:
  Stage prev_;
  bool live_;
};

/// RAII thread registration for worker bodies.
class ScopedThread {
 public:
  ScopedThread(std::string_view role, Stage initial) {
    thread_begin(role, initial);
  }
  ScopedThread(const ScopedThread&) = delete;
  ScopedThread& operator=(const ScopedThread&) = delete;
  ~ScopedThread() { thread_end(); }
};

/// Totals over the slots registered since the last reset_stages().
struct StageTotals {
  std::uint64_t wall_ns[kStageCount] = {};
  std::uint64_t calls[kStageCount] = {};
  std::uint64_t window_ns = 0;  // sum of thread begin->end windows

  [[nodiscard]] std::uint64_t accounted_ns() const {
    std::uint64_t n = 0;
    for (const std::uint64_t v : wall_ns) n += v;
    return n;
  }
  /// Share of the registered windows the stages cover; 1.0 when empty.
  [[nodiscard]] double accounted_share() const {
    if (window_ns == 0) return 1.0;
    return static_cast<double>(accounted_ns()) / static_cast<double>(window_ns);
  }
};

[[nodiscard]] StageTotals stage_totals();

/// Add the totals to obs::metrics() counters
/// `pipeline.stage.<stage>.wall_ns` / `.calls` (when obs is enabled).
void publish_stage_metrics();

/// {"stages":{...},"window_ns":n,"accounted_share":x,"threads":[...]}
[[nodiscard]] std::string profile_json();

}  // namespace pera::obs
