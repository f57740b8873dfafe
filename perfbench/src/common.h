// Shared pieces of the benchmark program: run options, the per-workload
// report, and the clocks every workload measures with.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Deliberate faults for the benchmark's own tests: each must make the
/// output checks fail.
enum class Inject : std::uint8_t { kNone, kCorruptEvidence, kTamperedQuote };

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;  // measurement budget of the whole run
  bool trace = false;
  bool tiny = false;  // self-test size: a few passes of small inputs
  Inject inject = Inject::kNone;
  std::string trace_out;  // span dump path (traced runs); empty = none
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few check failures, for stderr
  /// Workload-specific end-to-end figures under the names a reader of the
  /// paper would use (pkt_per_s, round_p99_us, detect_ms, ...).
  std::vector<std::pair<std::string, Metric>> named;
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layers;

  void fail(std::uint64_t ops, std::string why) {
    failed += ops;
    if (failures.size() < 16) failures.push_back(std::move(why));
  }
};

inline double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

class Tracer;

/// Turn a traced run's spans into per-layer metrics (mean self time per
/// call, inclusive time of the dataplane and PERA layers per packet, and
/// ladder shares) and write the spans to opt.trace_out.
void finish_trace(const Tracer& tracer, const RunOptions& opt, Report& rep);

// Workload entry points (one translation unit each).
Report run_fwd(const std::string& workload, const RunOptions& opt);
Report run_ra_rounds(const RunOptions& opt);
Report run_fleet_swap(const RunOptions& opt);

}  // namespace perfbench
