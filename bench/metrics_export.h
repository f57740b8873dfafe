// --metrics-json export shared by every bench binary.
//
// A bench that takes --metrics-json=PATH calls enable_metrics(PATH)
// before its run and write_metrics_json(PATH) after it. Both are no-ops
// for an empty PATH, so observability stays runtime-disabled unless the
// flag is given.
#pragma once

#include <cstdio>
#include <string>

#include "obs/obs.h"

namespace pera::obs_bench {

/// Reset and enable the obs subsystem when `path` is set.
inline void enable_metrics(const std::string& path) {
  if (path.empty()) return;
  ::pera::obs::reset();
  ::pera::obs::set_enabled(true);
}

/// Write obs::dump_json() plus a newline to `path` ("-" = stdout).
/// Returns false, after a message on stderr, when `path` cannot be
/// written — callers exit nonzero. An empty `path` writes nothing.
[[nodiscard]] inline bool write_metrics_json(const std::string& path) {
  if (path.empty()) return true;
  const std::string json = ::pera::obs::dump_json();
  std::FILE* f = path == "-" ? stdout : std::fopen(path.c_str(), "w");
  bool ok = f != nullptr;
  if (ok) {
    ok = std::fwrite(json.data(), 1, json.size(), f) == json.size() &&
         std::fputc('\n', f) != EOF;
    if (f != stdout) ok = std::fclose(f) == 0 && ok;
  }
  if (!ok) std::fprintf(stderr, "cannot write metrics to %s\n", path.c_str());
  return ok;
}

}  // namespace pera::obs_bench
