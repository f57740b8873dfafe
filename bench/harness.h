// The harness every gated bench runs on: flags, JSON records, the output
// writer, order statistics and gate reporting. It needs only pera_obs, so
// the plain-main benches link no Google Benchmark; obs_bench_main.h hands
// Args::rest() to Google Benchmark.
//
// Flags every bench takes:
//   --metrics-json=PATH  (or --metrics-json PATH) enable the obs subsystem
//                        as the arguments are parsed, before any run, and
//                        dump obs::dump_json() to PATH at the end
//                        ("-" writes to stdout)
//   --trace-capacity=N   resize the trace ring (with --metrics-json)
#pragma once

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "obs/obs.h"

namespace pera::bench {

/// Write `text` to `path` ("-" = stdout) and say so on stdout. Returns
/// false, after a message on stderr, when the file cannot be opened,
/// written or closed; callers exit nonzero.
[[nodiscard]] inline bool write_file(const std::string& path,
                                     std::string_view text) {
  std::FILE* f = path == "-" ? stdout : std::fopen(path.c_str(), "w");
  bool ok = f != nullptr;
  if (ok) {
    ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    ok = (f == stdout ? std::fflush(f) == 0 : std::fclose(f) == 0) && ok;
  }
  if (!ok) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
  } else if (f != stdout) {
    std::printf("wrote %s\n", path.c_str());
  }
  return ok;
}

/// Flags of the form --name=value and bare --name; the last occurrence
/// wins. Each getter claims what it reads, and rest() keeps the unclaimed
/// arguments in their original order for Google Benchmark. The argv
/// strings must outlive the Args.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 0; i < argc; ++i) args_.push_back({argv[i], false});
    for (std::size_t i = 1; i + 1 < args_.size(); ++i) {
      if (std::string_view(args_[i].raw) != "--metrics-json") continue;
      args_[i].claimed = args_[i + 1].claimed = true;  // the PATH form
      metrics_path_ = args_[++i].raw;
    }
    metrics_path_ = str("--metrics-json", metrics_path_);
    const std::size_t trace_capacity = size("--trace-capacity", 0);
    if (metrics_path_.empty()) return;
    if (trace_capacity > 0) obs::trace().set_capacity(trace_capacity);
    obs::reset();
    obs::set_enabled(true);
  }

  /// Value of --name=VALUE, or `fallback` when absent.
  std::string str(std::string_view name, std::string fallback) {
    const char* v = claim(name, /*with_value=*/true);
    return v != nullptr ? v : fallback;
  }

  /// Unsigned integer value of --name=N (strtoull), or `fallback`.
  std::size_t size(std::string_view name, std::size_t fallback) {
    const char* v = claim(name, /*with_value=*/true);
    return v != nullptr ? std::strtoull(v, nullptr, 10) : fallback;
  }

  /// Comma list --name=A,B,...: its positive integers in order, or
  /// `fallback` when the flag is absent or lists none.
  std::vector<std::size_t> sizes(std::string_view name,
                                 std::vector<std::size_t> fallback) {
    std::vector<std::size_t> out;
    // Each pass starts at the value or at the comma ending the last item.
    for (const char* p = claim(name, /*with_value=*/true); p != nullptr;
         p = std::strchr(p, ',')) {
      if (*p == ',') ++p;
      if (const long long n = std::atoll(p); n > 0) {
        out.push_back(static_cast<std::size_t>(n));
      }
    }
    return out.empty() ? fallback : out;
  }

  /// True when bare --name is given.
  bool flag(std::string_view name) {
    return claim(name, /*with_value=*/false) != nullptr;
  }

  /// argv[0] followed by every argument no getter claimed, in order.
  [[nodiscard]] std::vector<char*> rest() const {
    std::vector<char*> out;
    for (const Arg& a : args_) {
      if (!a.claimed) out.push_back(a.raw);
    }
    return out;
  }

  /// Write obs::dump_json() to the --metrics-json path; true (and no
  /// output) when the flag is absent.
  [[nodiscard]] bool write_metrics() const {
    return metrics_path_.empty() ||
           write_file(metrics_path_, obs::dump_json() + "\n");
  }

 private:
  struct Arg {
    char* raw;
    bool claimed;
  };

  // Claims every --name=VALUE (with_value) or bare --name after
  // argv[0]; returns the last one's VALUE, or the bare flag, or nullptr.
  const char* claim(std::string_view name, bool with_value) {
    const char* found = nullptr;
    for (std::size_t i = 1; i < args_.size(); ++i) {
      Arg& a = args_[i];
      std::string_view s = a.raw;
      if (!s.starts_with(name)) continue;
      s.remove_prefix(name.size());
      if (with_value ? !s.starts_with('=') : !s.empty()) continue;
      a.claimed = true;
      found = with_value ? a.raw + name.size() + 1 : a.raw;
    }
    return found;
  }

  std::vector<Arg> args_;
  std::string metrics_path_;
};

/// A JSON record in the layout of the committed BENCH_*.json files: the
/// root object and the arrays directly under it hold one item per line,
/// every other container stays on one line. Commas are placed here, and
/// str() closes whatever is still open. Strings are escaped for quotes and
/// backslashes only: the benches write no control characters.
class Json {
 public:
  Json() : out_("{") { open_.push_back({true, false, true}); }

  Json& begin_object(std::string_view key) { return open(key, false); }

  /// An array under `key` holding one object per element of `items`, each
  /// filled in by `fields(json, element)`.
  template <class Items, class Fields>
  Json& objects(std::string_view key, const Items& items, Fields fields) {
    open(key, true);
    for (const auto& element : items) {
      open({}, false);
      fields(*this, element);
      end();
    }
    return end();
  }

  /// Close the innermost object or array.
  Json& end() {
    const Level l = open_.back();
    open_.pop_back();
    if (l.block) newline();
    out_ += l.array ? ']' : '}';
    return *this;
  }

  Json& string(std::string_view key, std::string_view value) {
    item(key);
    quote(value);
    return *this;
  }

  Json& boolean(std::string_view key, bool value) {
    return raw(key, value ? "true" : "false");
  }

  template <class T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  Json& integer(std::string_view key, T value) {
    return raw(key, std::to_string(value));
  }

  /// `value` with `digits` places after the decimal point, as %.*f.
  Json& fixed(std::string_view key, double value, int digits) {
    std::string s(std::snprintf(nullptr, 0, "%.*f", digits, value), '\0');
    std::snprintf(s.data(), s.size() + 1, "%.*f", digits, value);
    return raw(key, s);
  }

  /// Embed already-serialized JSON as the value.
  Json& raw(std::string_view key, std::string_view json) {
    item(key);
    out_ += json;
    return *this;
  }

  /// The record, with every open container closed, plus a newline.
  [[nodiscard]] std::string str() {
    while (!open_.empty()) end();
    return out_ + "\n";
  }

 private:
  struct Level {
    bool block;  // one item per line
    bool array;  // items carry no key
    bool empty;
  };

  Json& open(std::string_view key, bool array) {
    item(key);
    out_ += array ? '[' : '{';
    open_.push_back({array && open_.size() == 1, array, true});
    return *this;
  }

  void newline() {
    out_ += '\n';
    out_.append(2 * open_.size(), ' ');
  }

  void item(std::string_view key) {
    Level& l = open_.back();
    if (!l.empty) out_ += l.block ? "," : ", ";
    if (l.block) newline();
    l.empty = false;
    if (l.array) return;
    quote(key);
    out_ += ": ";
  }

  void quote(std::string_view s) {
    out_ += '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') out_ += '\\';
      out_ += c;
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<Level> open_;
};

/// The element at index n/2 once `v` is ordered by `key`: the median for
/// odd n, the upper of the two middle elements for even n. `v` must not
/// be empty.
template <class T, class Key = std::identity>
T median_by(std::vector<T> v, Key key = {}) {
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end(), [&key](const T& a, const T& b) {
    return std::invoke(key, a) < std::invoke(key, b);
  });
  return *mid;
}

/// The element at rank p * (n - 1), rounded down; 0 for an empty sample.
/// Reorders `v`.
inline double percentile(std::vector<float>& v, double p) {
  if (v.empty()) return 0.0;
  const std::size_t idx = std::min(
      v.size() - 1, static_cast<std::size_t>(p * double(v.size() - 1)));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return double(v[idx]);
}

/// Hardware threads on this host, at least 1.
inline unsigned host_cores() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// A bench's acceptance gates: each failed check prints
/// "GATE FAIL [name]: detail" on stderr and counts as one violation.
class Gates {
 public:
  explicit Gates(std::string bench) : bench_(std::move(bench)) {}

  /// Record one gate; printf-style `fmt` describes a failure. Returns `ok`.
  __attribute__((format(printf, 4, 5))) bool check(bool ok, const char* name,
                                                   const char* fmt, ...) {
    if (ok) return true;
    std::fprintf(stderr, "GATE FAIL [%s]: ", name);
    std::va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fputc('\n', stderr);
    ++violations_;
    return false;
  }

  [[nodiscard]] bool ok() const { return violations_ == 0; }

  /// Print the verdict and return the exit code: 0 when every gate held.
  [[nodiscard]] int exit_code() const {
    if (ok()) {
      std::printf("%s: all gates passed\n", bench_.c_str());
      return 0;
    }
    std::fprintf(stderr, "%s: %d gate violation(s)\n", bench_.c_str(),
                 violations_);
    return 1;
  }

 private:
  std::string bench_;
  int violations_ = 0;
};

/// The end of a plain-main bench: write the record and the metrics dump,
/// then report the gates. Returns the process exit code.
inline int finish(const Args& args, const std::string& path,
                  std::string_view record, const Gates& gates) {
  if (!write_file(path, record) || !args.write_metrics()) return 1;
  return gates.exit_code();
}

}  // namespace pera::bench
