#include "obs/recorder.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "obs/obs.h"

namespace pera::obs {

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;
constexpr auto kAcquire = std::memory_order_acquire;
constexpr auto kRelease = std::memory_order_release;
constexpr std::size_t kMaxSlots = 64;
constexpr std::size_t kNameCache = 32;  // per-thread intern cache entries

enum SlotState : std::uint8_t { kFree, kLive, kRetired };

// Atomic fields: an exporter may copy a record while its owner rewrites
// it, and trace_snapshot() discards such copies.
struct Record {
  std::atomic<std::uint64_t> seq, kind_name, at, duration, value;
};

// The only per-thread state. Only the owner writes the ring and the stage
// accumulators (apart from the resets, which run between runs).
struct alignas(64) Slot {
  std::atomic<std::uint8_t> state{kFree};
  std::atomic<std::uint64_t> retired_at{0};  // retirement order
  // Ring indices only grow: [base, head) were recorded since the last
  // clear or recycle, and index begun - 1 may be mid-write.
  std::atomic<std::uint64_t> base{0}, begun{0}, head{0};
  std::atomic<std::size_t> cap{0};
  std::unique_ptr<Record[]> ring;  // allocated by the owner's first event
  std::atomic<bool> staged{false};  // registered since reset_stages()
  std::atomic<std::uint32_t> role{0};
  std::atomic<std::uint64_t> ns[kStageCount]{}, calls[kStageCount]{};
  std::atomic<std::uint64_t> window_ns{0};
};

struct State {
  std::atomic<bool> stages{false};
  std::atomic<std::uint32_t> stage_gen{1};
  std::atomic<std::uint64_t> seq{0}, retirements{0};
  std::atomic<std::uint64_t> lost{0};  // events of recycled slots, or slotless
  std::atomic<std::size_t> capacity{kDefaultTraceCapacity};
  Slot slots[kMaxSlots];
};
constinit State g_state;

struct Names {
  std::mutex mu;
  std::deque<std::string> by_id;  // a deque never moves its strings
  std::unordered_map<std::string_view, std::uint32_t> ids;
};

// Never destroyed: exported SpanEvents view its strings.
Names& names() {
  static Names* const n = new Names();
  return *n;
}

// The calling thread's view of its slot. Trivially destructible, so the
// hot paths read it with no TLS guard. stage_gen 0 = not registered.
struct Cursor {
  Slot* slot = nullptr;
  std::uint32_t stage_gen = 0;
  Stage stage = Stage::kIdle;
  std::uint64_t stamp = 0;  // entry time of the current stage
  std::uint64_t began = 0;  // thread_begin time
  struct {  // intern() cache, by name hash
    std::uint64_t hash = 0;
    const std::string* name = nullptr;
    std::uint32_t id = 0;
  } names[kNameCache] = {};
};
thread_local Cursor t_cursor;

// Retires the thread's slot at thread exit. Built on the claim path only,
// so the hot paths never touch a TLS object with a destructor.
struct Retirer {
  Retirer() = default;
  Retirer(const Retirer&) = delete;
  Retirer& operator=(const Retirer&) = delete;
  ~Retirer() {
    Slot* slot = std::exchange(t_cursor.slot, nullptr);
    slot->retired_at.store(g_state.retirements.fetch_add(1, kRelaxed),
                           kRelaxed);
    slot->state.store(kRetired, kRelease);
  }
};

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::nanoseconds(
      std::chrono::steady_clock::now().time_since_epoch()).count());
}

void wipe_stages(Slot& slot) {
  slot.staged.store(false, kRelaxed);
  for (auto& ns : slot.ns) ns.store(0, kRelaxed);
  for (auto& calls : slot.calls) calls.store(0, kRelaxed);
  slot.window_ns.store(0, kRelaxed);
}

// The calling thread's slot: claims a free one, or else recycles the one
// whose thread retired first. nullptr while every slot is live.
Slot* own_slot() {
  if (t_cursor.slot != nullptr) return t_cursor.slot;
  for (;;) {
    Slot* pick = nullptr;
    for (Slot& slot : g_state.slots) {
      const std::uint8_t st = slot.state.load(kRelaxed);
      if (st == kFree) {
        pick = &slot;
        break;
      }
      if (st == kRetired &&
          (pick == nullptr || slot.retired_at.load(kRelaxed) <
                                  pick->retired_at.load(kRelaxed))) {
        pick = &slot;
      }
    }
    if (pick == nullptr) return nullptr;
    std::uint8_t st = pick->state.load(kRelaxed);
    if (st == kLive || !pick->state.compare_exchange_strong(
                           st, kLive, std::memory_order_acq_rel)) {
      continue;  // another thread took it first
    }
    // A recycled slot's events count as dropped.
    const std::uint64_t head = pick->head.load(kRelaxed);
    g_state.lost.fetch_add(head - pick->base.load(kRelaxed), kRelaxed);
    pick->base.store(head, kRelease);
    wipe_stages(*pick);
    thread_local Retirer retirer;
    return t_cursor.slot = pick;
  }
}

Slot* staged_slot() {
  const std::uint32_t gen = t_cursor.stage_gen;
  if (gen == 0 || gen != g_state.stage_gen.load(kRelaxed)) return nullptr;
  return t_cursor.slot;
}

// Closes the calling thread's current stage at time `t`.
void close_stage(Slot& slot, std::uint64_t t) {
  const auto i = static_cast<std::size_t>(t_cursor.stage);
  slot.ns[i].fetch_add(t - t_cursor.stamp, kRelaxed);
  slot.calls[i].fetch_add(1, kRelaxed);
  t_cursor.stamp = t;
}

// Drops every buffered event and restarts seq at 0.
void clear_trace() {
  for (Slot& slot : g_state.slots) {
    slot.base.store(slot.head.load(kRelaxed), kRelease);
  }
  g_state.lost.store(0, kRelaxed);
  g_state.seq.store(0, kRelaxed);
}

constexpr const char* kSpanNames[] = {
    "measure", "cache_hit", "cache_miss", "sample_decision", "evidence_create",
    "evidence_compose", "sign", "verify", "appraise", "wire_encode",
    "wire_decode", "epoch_bump", "trust_transition"};

constexpr std::string_view kStageNames[kStageCount] = {
    "dispatch",    "ring_transit", "shard_work", "reassembly",
    "wots_verify", "merge",        "idle"};

}  // namespace

const char* to_string(SpanKind k) {
  return kSpanNames[static_cast<std::size_t>(k)];
}

std::uint32_t intern(std::string_view name) {
  std::uint64_t hash = 14695981039346656037ull;  // FNV-1a
  for (const char ch : name) {
    hash = (hash ^ static_cast<unsigned char>(ch)) * 1099511628211ull;
  }
  auto& hit = t_cursor.names[hash % kNameCache];
  if (hit.name != nullptr && hit.hash == hash && *hit.name == name) {
    return hit.id;
  }
  Names& n = names();
  const std::lock_guard<std::mutex> lock(n.mu);
  auto it = n.ids.find(name);
  if (it == n.ids.end()) {
    const auto id = static_cast<std::uint32_t>(n.by_id.size());
    it = n.ids.emplace(n.by_id.emplace_back(name), id).first;
  }
  hit = {hash, &n.by_id[it->second], it->second};
  return it->second;
}

void record(SpanKind kind, std::uint32_t name, netsim::SimTime duration,
            std::uint64_t value) {
  if (!enabled()) return;
  Slot* slot = own_slot();
  if (slot == nullptr) {
    g_state.lost.fetch_add(1, kRelaxed);
    return;
  }
  std::size_t cap = slot->cap.load(kRelaxed);
  if (cap == 0) {
    cap = g_state.capacity.load(kRelaxed);
    slot->ring = std::make_unique<Record[]>(cap);
    slot->cap.store(cap, kRelaxed);
  }
  // Announce the overwrite before making it: a reader whose acquire load
  // sees any release store below then also sees `begun` (trace_snapshot).
  const std::uint64_t h = slot->head.load(kRelaxed);
  slot->begun.store(h + 1, kRelaxed);
  Record& r = slot->ring[h % cap];
  r.seq.store(g_state.seq.fetch_add(1, kRelaxed), kRelease);
  r.kind_name.store((static_cast<std::uint64_t>(kind) << 32) | name, kRelease);
  r.at.store(static_cast<std::uint64_t>(sim_now()), kRelease);
  r.duration.store(static_cast<std::uint64_t>(duration), kRelease);
  r.value.store(value, kRelease);
  slot->head.store(h + 1, kRelease);
}

void set_trace_capacity(std::size_t per_thread) {
  if (per_thread == 0) {
    throw std::invalid_argument("set_trace_capacity: capacity must be > 0");
  }
  g_state.capacity.store(per_thread, kRelaxed);
  for (Slot& slot : g_state.slots) {
    slot.cap.store(0, kRelaxed);
    slot.ring.reset();
  }
  clear_trace();
}

std::size_t trace_capacity() { return g_state.capacity.load(kRelaxed); }

void reset() {
  metrics().reset_values();
  clear_trace();
}

std::vector<SpanEvent> trace_snapshot(TraceStats* stats) {
  TraceStats st;
  std::vector<SpanEvent> out;
  Names& n = names();
  const std::lock_guard<std::mutex> lock(n.mu);
  for (const Slot& slot : g_state.slots) {
    if (slot.state.load(kAcquire) == kFree) continue;
    ++st.slots;
    const std::uint64_t base = slot.base.load(kAcquire);
    const std::uint64_t head = slot.head.load(kAcquire);
    const std::size_t cap = slot.cap.load(kRelaxed);
    st.rings += cap != 0 ? 1 : 0;
    st.recorded += head - base;
    if (head == base) continue;
    const std::uint64_t lo = std::max(base, head > cap ? head - cap : 0);
    const auto first = static_cast<std::ptrdiff_t>(out.size());
    for (std::uint64_t i = lo; i < head; ++i) {
      const Record& r = slot.ring[i % cap];
      const std::uint64_t kind_name = r.kind_name.load(kAcquire);
      out.push_back({static_cast<SpanKind>(kind_name >> 32),
                     n.by_id[static_cast<std::uint32_t>(kind_name)],
                     static_cast<netsim::SimTime>(r.at.load(kAcquire)),
                     static_cast<netsim::SimTime>(r.duration.load(kAcquire)),
                     r.value.load(kAcquire), r.seq.load(kAcquire)});
    }
    // A copy of a record the owner began to overwrite meanwhile is torn:
    // index i is rewritten once begun passes i + cap.
    const std::uint64_t begun = slot.begun.load(kRelaxed);
    if (begun > lo + cap) {
      const auto torn = static_cast<std::ptrdiff_t>(
          std::min(begun - cap - lo, head - lo));
      out.erase(out.begin() + first, out.begin() + first + torn);
    }
  }
  st.recorded += g_state.lost.load(kRelaxed);
  st.events = out.size();
  st.dropped = st.recorded - st.events;
  if (stats != nullptr) *stats = st;
  std::sort(out.begin(), out.end(), [](const SpanEvent& a, const SpanEvent& b) {
    return a.seq < b.seq;
  });
  return out;
}

std::string trace_json() {
  TraceStats st;
  const std::vector<SpanEvent> events = trace_snapshot(&st);
  std::string out = "{\"capacity\":" + std::to_string(trace_capacity()) +
                    ",\"recorded\":" + std::to_string(st.recorded) +
                    ",\"dropped\":" + std::to_string(st.dropped) +
                    ",\"events\":[";
  for (const SpanEvent& e : events) {
    if (out.back() != '[') out += ',';
    out += "{\"seq\":" + std::to_string(e.seq) + ",\"kind\":\"" +
           to_string(e.kind) + "\",\"name\":\"";
    for (const char c : e.name) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += "\",\"at\":" + std::to_string(e.at) +
           ",\"duration\":" + std::to_string(e.duration) +
           ",\"value\":" + std::to_string(e.value) + '}';
  }
  return out + "]}";
}

bool stages_enabled() { return g_state.stages.load(kRelaxed); }

void set_stages_enabled(bool on) { g_state.stages.store(on, kRelaxed); }

void reset_stages() {
  // End every registration first, so live threads stop adding before
  // the totals are zeroed.
  g_state.stage_gen.fetch_add(1, kRelaxed);
  for (Slot& slot : g_state.slots) wipe_stages(slot);
}

void thread_begin(std::string_view role, Stage initial) {
  if (!stages_enabled()) return;
  thread_end();
  Slot* slot = own_slot();
  if (slot == nullptr) return;  // every slot live: the thread runs unprofiled
  slot->role.store(intern(role), kRelaxed);
  slot->staged.store(true, kRelease);
  t_cursor.stage_gen = g_state.stage_gen.load(kRelaxed);
  t_cursor.stage = initial;
  t_cursor.began = t_cursor.stamp = now_ns();
}

void thread_end() {
  Slot* slot = staged_slot();
  if (slot == nullptr) return;
  const std::uint64_t t = now_ns();
  close_stage(*slot, t);
  slot->window_ns.fetch_add(t - t_cursor.began, kRelaxed);
  t_cursor.stage_gen = 0;
}

void enter_stage(Stage s) {
  Slot* slot = staged_slot();
  if (slot == nullptr || s == t_cursor.stage) return;
  close_stage(*slot, now_ns());
  t_cursor.stage = s;
}

ScopedStage::ScopedStage(Stage s)
    : prev_(t_cursor.stage), live_(staged_slot() != nullptr) {
  if (live_) enter_stage(s);
}

ScopedStage::~ScopedStage() {
  if (live_) enter_stage(prev_);
}

StageTotals stage_totals() {
  StageTotals out;
  for (const Slot& slot : g_state.slots) {
    if (!slot.staged.load(kAcquire)) continue;
    for (std::size_t i = 0; i < kStageCount; ++i) {
      out.wall_ns[i] += slot.ns[i].load(kRelaxed);
      out.calls[i] += slot.calls[i].load(kRelaxed);
    }
    out.window_ns += slot.window_ns.load(kRelaxed);
  }
  return out;
}

void publish_stage_metrics() {
  if (!enabled()) return;
  const StageTotals t = stage_totals();
  for (std::size_t i = 0; i < kStageCount; ++i) {
    const std::string base = "pipeline.stage." + std::string(kStageNames[i]);
    metrics().counter(base + ".wall_ns").add(t.wall_ns[i]);
    metrics().counter(base + ".calls").add(t.calls[i]);
  }
}

std::string profile_json() {
  const StageTotals t = stage_totals();
  std::string out = "{\"stages\":{";
  for (std::size_t i = 0; i < kStageCount; ++i) {
    out += (i == 0 ? "\"" : ",\"") + std::string(kStageNames[i]) +
           "\":{\"wall_ns\":" + std::to_string(t.wall_ns[i]) +
           ",\"calls\":" + std::to_string(t.calls[i]) + "}";
  }
  char share[32];
  std::snprintf(share, sizeof(share), "%.4f", t.accounted_share());
  out += "},\"window_ns\":" + std::to_string(t.window_ns) +
         ",\"accounted_share\":" + share + ",\"threads\":[";
  Names& n = names();
  const std::lock_guard<std::mutex> lock(n.mu);
  for (const Slot& slot : g_state.slots) {
    if (!slot.staged.load(kAcquire)) continue;
    if (out.back() != '[') out += ',';
    out += "{\"role\":\"" + n.by_id[slot.role.load(kRelaxed)] + "\"";
    for (std::size_t i = 0; i < kStageCount; ++i) {
      const std::uint64_t ns = slot.ns[i].load(kRelaxed);
      if (ns == 0) continue;
      out += ",\"" + std::string(kStageNames[i]) + "\":" + std::to_string(ns);
    }
    out += "}";
  }
  return out + "]}";
}

}  // namespace pera::obs
