// Shared benchmark main with observability export.
//
// Every bench binary accepts, in addition to the standard Google
// Benchmark flags:
//
//   --metrics-json=PATH   enable the obs subsystem for the whole run and
//                         dump obs::dump_json() to PATH afterwards
//                         (PATH "-" writes to stdout)
//   --trace-capacity=N    resize the trace ring before the run
//
// Without --metrics-json, observability stays runtime-disabled and the
// instrumented paths cost one relaxed atomic load per site. The benches
// with a plain main() parse --metrics-json themselves and use the
// helpers of metrics_export.h directly.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>

#include "metrics_export.h"
#include "obs/obs.h"

namespace pera::obs_bench {

inline int run(int argc, char** argv) {
  std::string metrics_path;
  std::size_t trace_capacity = 0;

  // Strip our flags before benchmark::Initialize sees (and rejects) them.
  int out_argc = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string kMetrics = "--metrics-json";
    const std::string kTrace = "--trace-capacity";
    if (arg.rfind(kMetrics + "=", 0) == 0) {
      metrics_path = arg.substr(kMetrics.size() + 1);
    } else if (arg == kMetrics && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (arg.rfind(kTrace + "=", 0) == 0) {
      trace_capacity =
          static_cast<std::size_t>(std::atoll(arg.c_str() + kTrace.size() + 1));
    } else {
      argv[out_argc++] = argv[i];
    }
  }
  argc = out_argc;

  if (!metrics_path.empty() && trace_capacity > 0) {
    ::pera::obs::trace().set_capacity(trace_capacity);
  }
  enable_metrics(metrics_path);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  return write_metrics_json(metrics_path) ? 0 : 1;
}

}  // namespace pera::obs_bench

/// Drop-in replacement for BENCHMARK_MAIN().
#define PERA_BENCH_MAIN()                                      \
  int main(int argc, char** argv) {                            \
    return ::pera::obs_bench::run(argc, argv);                 \
  }                                                            \
  int main(int, char**)
