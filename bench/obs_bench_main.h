// Shared Google Benchmark main: the standard Google Benchmark flags plus
// the harness flags of harness.h. Without --metrics-json, observability
// stays runtime-disabled and each instrumented site costs one relaxed
// atomic load.
#pragma once

#include <benchmark/benchmark.h>

#include <vector>

#include "harness.h"

namespace pera::obs_bench {

/// Run the registered benchmarks on the arguments no getter of `args`
/// claimed, then write the --metrics-json dump.
inline int run(const bench::Args& args) {
  std::vector<char*> argv = args.rest();
  int argc = static_cast<int>(argv.size());
  argv.push_back(nullptr);
  benchmark::Initialize(&argc, argv.data());
  if (benchmark::ReportUnrecognizedArguments(argc, argv.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return args.write_metrics() ? 0 : 1;
}

}  // namespace pera::obs_bench

/// Drop-in replacement for BENCHMARK_MAIN().
#define PERA_BENCH_MAIN()                                           \
  int main(int argc, char** argv) {                                 \
    return ::pera::obs_bench::run(::pera::bench::Args(argc, argv)); \
  }                                                                 \
  int main(int, char**)
