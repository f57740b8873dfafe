// Observability facade — one process-wide MetricsRegistry and the span
// recorder (obs/recorder.h) behind a compile-time and a runtime toggle.
//
// Compile-time: build with -DPERA_OBS_ENABLED=0 (CMake option PERA_OBS=OFF)
// and every instrumentation macro compiles to nothing.
// Runtime: obs::set_enabled(bool); while disabled, the macros cost one
// relaxed atomic load and never evaluate their arguments — the
// instrumented hot paths are observably free (<2% on the Fig. 4 bench).
//
// Instrumentation sites use the macros so argument construction (string
// concatenation, size computations) is skipped when disabled:
//
//   PERA_OBS_COUNT("pera.cache.hit");
//   PERA_OBS_COUNT("pera.inband.bytes", encoded.size());
//   PERA_OBS_OBSERVE("pera.sign.sim_ns", cost);
//   PERA_OBS_EVENT(obs::SpanKind::kSign, place_, cost, 0);
//   obs::ScopedSpan span(obs::SpanKind::kEvidenceCreate, place_);
#pragma once

#include <atomic>
#include <cstdint>
#include <string_view>

#include "obs/metrics.h"
#include "obs/recorder.h"

#ifndef PERA_OBS_ENABLED
#define PERA_OBS_ENABLED 1
#endif

namespace pera::obs {

namespace detail {
inline std::atomic<bool> g_enabled{false};
inline std::atomic<netsim::SimTime> g_sim_now{0};
}  // namespace detail

/// Runtime toggle. Off by default — simulations opt in.
inline bool enabled() {
#if PERA_OBS_ENABLED
  return detail::g_enabled.load(std::memory_order_relaxed);
#else
  return false;
#endif
}

inline void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

/// The process-wide registry.
MetricsRegistry& metrics();

/// Zero all metric values and clear the trace (handles stay valid); stage
/// totals are kept (reset_stages()). Call between runs.
void reset();

/// The simulated clock used to stamp trace events. netsim::Network
/// advances it as its event queue runs; outside a simulation it holds
/// whatever was last set (0 at startup).
inline netsim::SimTime sim_now() {
  return detail::g_sim_now.load(std::memory_order_relaxed);
}
inline void set_sim_now(netsim::SimTime t) {
  detail::g_sim_now.store(t, std::memory_order_relaxed);
}

/// Helpers behind the macros. Call through the macros in hot paths so
/// the arguments are not evaluated while disabled.
void count(std::string_view name, std::uint64_t delta = 1);
void gauge_set(std::string_view name, std::int64_t value);
void observe(std::string_view histogram, std::int64_t value);
inline void event(SpanKind kind, std::string_view name,
                  netsim::SimTime duration = 0, std::uint64_t value = 0) {
  if (enabled()) record(kind, intern(name), duration, value);
}

/// Full JSON dump: {"metrics": ..., "trace": ...}.
[[nodiscard]] std::string dump_json();

/// RAII span: records one trace event when it goes out of scope, iff
/// observability was enabled at construction.
/// Simulated cost is attributed explicitly via add_cost() because sim
/// time does not advance inside a switch's packet path.
class ScopedSpan {
 public:
  ScopedSpan(SpanKind kind, std::string_view name)
      : live_(enabled()), kind_(kind), name_(live_ ? intern(name) : 0) {}

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void add_cost(netsim::SimTime c) { cost_ += c; }
  void set_cost(netsim::SimTime c) { cost_ = c; }
  void set_value(std::uint64_t v) { value_ = v; }

  ~ScopedSpan() {
    if (live_) record(kind_, name_, cost_, value_);
  }

 private:
  bool live_;
  SpanKind kind_;
  std::uint32_t name_;
  netsim::SimTime cost_ = 0;
  std::uint64_t value_ = 0;
};

}  // namespace pera::obs

#if PERA_OBS_ENABLED
#define PERA_OBS_COUNT(...)                                  \
  do {                                                       \
    if (::pera::obs::enabled()) ::pera::obs::count(__VA_ARGS__); \
  } while (0)
#define PERA_OBS_GAUGE(name, v)                                  \
  do {                                                           \
    if (::pera::obs::enabled()) ::pera::obs::gauge_set(name, v); \
  } while (0)
#define PERA_OBS_OBSERVE(name, v)                              \
  do {                                                         \
    if (::pera::obs::enabled()) ::pera::obs::observe(name, v); \
  } while (0)
#define PERA_OBS_EVENT(...)                                  \
  do {                                                       \
    if (::pera::obs::enabled()) ::pera::obs::event(__VA_ARGS__); \
  } while (0)
#else
#define PERA_OBS_COUNT(...) do {} while (0)
#define PERA_OBS_GAUGE(name, v) do {} while (0)
#define PERA_OBS_OBSERVE(name, v) do {} while (0)
#define PERA_OBS_EVENT(...) do {} while (0)
#endif
