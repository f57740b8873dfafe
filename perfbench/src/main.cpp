// perfbench: the repository benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out PATH]
//   perfbench --selftest
//
// Prints one "name = value unit" line per figure, then, as the last line
// of stdout, one JSON object: {"correct", "attempted", "failed",
// "metrics"}, preceded by a "host = {...}" line (cores, SHA-256 backend,
// build type, observability) so results from different hosts or
// backends are never compared by accident. With --trace 0 the metrics
// are the end-to-end set, with --trace 1 the per-layer set; a layer a
// workload does not run reports 0. Exits nonzero when any output check
// failed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "common.h"
#include "crypto/sha256_backend.h"
#include "obs/obs.h"
#include "trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

struct Declared {
  const char* name;
  const char* unit;
};

// Must list exactly the names BENCHMARK.json declares.
constexpr Declared kEndToEnd[] = {
    {"ops_per_s", "1/s"},
    {"cpu_us_per_op", "us"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr Declared kPerLayer[] = {
    {"dataplane.process_ns", "ns"},
    {"dataplane.parse_ns", "ns"},
    {"dataplane.match_action_ns", "ns"},
    {"dataplane.share", "ratio"},
    {"dataplane.table_update_ns", "ns"},
    {"crypto.tables_digest_ns", "ns"},
    {"pipeline.epoch_syncs", "count"},
    {"pera.process_ns", "ns"},
    {"pera.evidence_create_ns", "ns"},
    {"pera.measure_ns", "ns"},
    {"pera.cache_hit_ratio", "ratio"},
    {"pera.evidence_bytes_per_pkt", "B"},
    {"pera.share", "ratio"},
    {"crypto.sign_ns", "ns"},
    {"crypto.verify_ns", "ns"},
    {"crypto.signs_per_pkt", "count"},
    {"copland.encode_ns", "ns"},
    {"copland.decode_ns", "ns"},
    {"pipeline.appraise_ns", "ns"},
    {"pipeline.fold_ns", "ns"},
    {"pipeline.submit_ns", "ns"},
    {"pipeline.drain_ms", "ms"},
    {"pipeline.pool_reuse_ratio", "ratio"},
    {"pipeline.dropped", "count"},
    {"net.handshake_us", "us"},
    {"net.frame_encode_ns", "ns"},
    {"net.frame_decode_ns", "ns"},
    {"net.server_session_ns", "ns"},
    {"net.client_session_ns", "ns"},
    {"net.bytes_per_round", "B"},
    {"net.io_remainder_us", "us"},
    {"ra.cert_sign_ns", "ns"},
    {"ra.cert_verify_ns", "ns"},
    {"ra.round_p50_us", "us"},
    {"ra.round_p99_us", "us"},
    {"ra.round_samples", "count"},
    {"netsim.slice_ms", "ms"},
    {"netsim.msgs_per_switch_per_wave", "count"},
    {"fleet.verify_aggregate_ns", "ns"},
    {"ra.appraise_ns", "ns"},
    {"fleet.waves", "count"},
    {"fleet.aggregates_invalid", "count"},
    {"fleet.peak_root_load", "count"},
    {"fleet.peak_regional_load", "count"},
    {"fleet.detect_ms", "ms"},
    {"trace.overhead_ratio", "ratio"},
};

constexpr const char* kWorkloads[] = {"fwd_cached", "fwd_fresh_churn",
                                      "ra_rounds", "fleet_swap"};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

Report run_workload(const std::string& w, const RunOptions& opt) {
  if (w == "fwd_cached" || w == "fwd_fresh_churn") return run_fwd(w, opt);
  if (w == "ra_rounds") return run_ra_rounds(opt);
  return run_fleet_swap(opt);
}

bool known_workload(const std::string& w) {
  for (const char* k : kWorkloads) {
    if (w == k) return true;
  }
  return false;
}

// Prints the report and returns whether every output check passed.
bool emit(const std::string& workload, const RunOptions& opt, Report& rep) {
  rep.e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  const bool correct = rep.failed == 0 && rep.attempted > 0;
  const double fail_ratio =
      rep.attempted == 0 ? 1.0
                         : static_cast<double>(rep.failed) /
                               static_cast<double>(rep.attempted);
  for (const std::string& why : rep.failures) {
    std::fprintf(stderr, "perfbench: CHECK FAILED [%s]: %s\n", workload.c_str(),
                 why.c_str());
  }
  std::printf("workload = %s\n", workload.c_str());
  for (const auto& [name, m] : rep.named) {
    std::printf("%s = %.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("fail_ratio = %.6g ratio (%llu of %llu)\n", fail_ratio,
              static_cast<unsigned long long>(rep.failed),
              static_cast<unsigned long long>(rep.attempted));

  std::string metrics;
  const auto add = [&metrics](const char* name, const Metric& m) {
    if (!metrics.empty()) metrics.append(", ");
    metrics.append("\"").append(name).append("\": {\"value\": ");
    metrics.append(json_number(m.value)).append(", \"unit\": \"");
    metrics.append(m.unit).append("\"}");
  };
  if (opt.trace) {
    for (const Declared& d : kPerLayer) {
      const auto it = rep.layers.find(d.name);
      const Metric m = it != rep.layers.end() ? it->second : Metric{0.0, d.unit};
      std::printf("%s = %.6g %s\n", d.name, m.value, d.unit);
      add(d.name, Metric{m.value, d.unit});
    }
  } else {
    for (const Declared& d : kEndToEnd) {
      const Metric& m = rep.e2e[d.name];
      std::printf("%s = %.6g %s\n", d.name, m.value, d.unit);
      add(d.name, Metric{m.value, d.unit});
    }
  }

  const std::string host =
      "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"sha256_backend\": \"" +
      json_escape(pera::crypto::engine::active().name) +
      "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\", \"obs_compiled\": " +
      (PERA_OBS_ENABLED ? "true" : "false") +
      ", \"obs_enabled\": " + (pera::obs::enabled() ? "true" : "false") + "}";
  std::printf("host = %s\n", host.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(rep.attempted),
      static_cast<unsigned long long>(rep.failed), metrics.c_str());
  std::fflush(stdout);
  return correct;
}

// The benchmark's own tests: every workload passes its checks at a tiny
// size, and each deliberate fault makes the checks fail.
int selftest() {
  int bad = 0;
  const auto expect = [&bad](const char* what, bool ok) {
    std::fprintf(stderr, "selftest: %-44s %s\n", what, ok ? "ok" : "FAILED");
    if (!ok) ++bad;
  };
  for (const char* w : kWorkloads) {
    for (const bool trace : {false, true}) {
      RunOptions opt;
      opt.seed = 7;
      opt.seconds = 0.2;
      opt.tiny = true;
      opt.trace = trace;
      Report rep = run_workload(w, opt);
      const bool ok = emit(w, opt, rep);
      expect((std::string(w) + (trace ? " traced" : "") + " passes").c_str(),
             ok && rep.failed == 0);
    }
  }
  {
    RunOptions opt;
    opt.seconds = 0.2;
    opt.tiny = true;
    opt.inject = Inject::kCorruptEvidence;
    Report rep = run_workload("fwd_cached", opt);
    const bool ok = emit("fwd_cached", opt, rep);
    expect("corrupted evidence record raises fail_ratio", !ok && rep.failed > 0);
  }
  {
    RunOptions opt;
    opt.seconds = 0.2;
    opt.tiny = true;
    opt.inject = Inject::kTamperedQuote;
    Report rep = run_workload("ra_rounds", opt);
    const bool ok = emit("ra_rounds", opt, rep);
    expect("tampered quote raises fail_ratio", !ok && rep.failed > 0);
  }
  return bad == 0 ? 0 : 1;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH]\n       "
               "perfbench --selftest\n",
               why);
  return 2;
}

}  // namespace

void finish_trace(const Tracer& tracer, const RunOptions& opt, Report& rep) {
  const std::map<std::string, Tracer::Stat> stats = tracer.stats();
  for (const auto& [name, st] : stats) {
    if (name == "op" || name == "probe" || st.calls == 0) continue;
    const double calls = static_cast<double>(st.calls);
    if (name == "dataplane.process" || name == "pera.process") {
      rep.layers[name + "_ns"] = {st.total_ns / calls, "ns"};
    } else if (name == "net.handshake") {
      rep.layers["net.handshake_us"] = {st.total_ns / calls / 1e3, "us"};
    } else if (name == "netsim.slice") {
      rep.layers["netsim.slice_ms"] = {st.total_ns / calls / 1e6, "ms"};
    } else if (name == "pipeline.submit") {
      rep.layers["pipeline.submit_ns"] = {st.total_ns / calls, "ns"};
    } else {
      rep.layers[name + "_ns"] = {st.self_ns / calls, "ns"};
    }
  }
  const std::map<std::string, double> ladder = tracer.ladder_self_ns();
  double total = 0.0;
  std::map<std::string, double> by_layer;
  for (const auto& [name, ns] : ladder) {
    total += ns;
    by_layer[name.substr(0, name.find('.'))] += ns;
  }
  for (const char* layer : {"dataplane", "pera"}) {
    rep.layers[std::string(layer) + ".share"] = {
        total > 0 ? by_layer[layer] / total : 0.0, "ratio"};
  }
  // The dump is for reading one run by hand; the metrics above already
  // cover every span, so it is capped at a size a text viewer handles.
  constexpr std::size_t kMaxDumpedSpans = 100'000;
  if (!opt.trace_out.empty() && !tracer.write_jsonl(opt.trace_out, kMaxDumpedSpans)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", opt.trace_out.c_str());
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions opt;
  std::string workload;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--selftest") return selftest();
    if (arg == "--workload") {
      workload = value("--workload");
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value("--seed"), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value("--seconds"), nullptr);
      have_seconds = opt.seconds > 0;
    } else if (arg == "--trace") {
      const std::string v = value("--trace");
      if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
      opt.trace = v == "1";
      have_trace = true;
    } else if (arg == "--trace-out") {
      opt.trace_out = value("--trace-out");
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!known_workload(workload)) return usage("unknown or missing --workload");
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }
  try {
    Report rep = run_workload(workload, opt);
    return emit(workload, opt, rep) ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", workload.c_str(), e.what());
    return 1;
  }
}
