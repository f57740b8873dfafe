// In-memory span recorder for the traced benchmark run.
//
// Spans are opened and closed on the benchmark's own thread, around calls
// into the system's public functions. They nest strictly (a stack), so a
// span's self time is its duration minus the durations of its direct
// children. Spans are kept in memory and only written out (write_jsonl)
// when the run ends, so recording costs two clock reads and one vector
// append per span.
//
// Ladder spans hang under a root named "op" (one per packet or round);
// probe spans hang under a root named "probe" and time a single public
// call outside the replayed path. Shares are computed over the ladder only.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/signer.h"

namespace perfbench {

class Tracer {
 public:
  struct Stat {
    std::uint64_t calls = 0;
    double total_ns = 0.0;  // inclusive
    double self_ns = 0.0;   // exclusive of child spans
  };

  /// Open a span named by a string literal (the pointer is interned).
  std::uint32_t open(std::string_view name);
  void close(std::uint32_t idx);

  /// Per-name inclusive and self time over every closed span.
  [[nodiscard]] std::map<std::string, Stat> stats() const;

  /// Self time of every span below an "op" root, summed per name; the
  /// roots' own self time (benchmark glue) is left out.
  [[nodiscard]] std::map<std::string, double> ladder_self_ns() const;

  /// One JSON object per span for the first `max_spans` spans: name,
  /// parent index, start and end in ns relative to the first span.
  /// Returns false when the file cannot be written.
  bool write_jsonl(const std::string& path, std::size_t max_spans) const;

 private:
  struct Span {
    std::uint16_t name = 0;
    std::int32_t parent = -1;
    std::int64_t start = 0;
    std::int64_t end = 0;
  };
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  [[nodiscard]] std::vector<double> child_ns() const;

  std::vector<std::string_view> names_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

/// RAII span; a null tracer makes it a no-op (the untraced run).
class Scope {
 public:
  Scope(Tracer* t, std::string_view name)
      : t_(t), idx_(t != nullptr ? t->open(name) : 0) {}
  ~Scope() {
    if (t_ != nullptr) t_->close(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  std::uint32_t idx_;
};

/// Signer decorator: every sign() call becomes a "crypto.sign" span, so
/// signing shows up as a child of whatever layer asked for it (the
/// evidence engine, the switch's round evidence).
class TracingSigner final : public pera::crypto::Signer {
 public:
  TracingSigner(pera::crypto::Signer& inner, Tracer* tracer)
      : inner_(&inner), tracer_(tracer) {}
  [[nodiscard]] pera::crypto::Signature sign(
      const pera::crypto::Digest& message) override {
    ++signs_;
    const Scope s(tracer_, "crypto.sign");
    return inner_->sign(message);
  }
  [[nodiscard]] pera::crypto::Digest key_id() const override {
    return inner_->key_id();
  }
  [[nodiscard]] pera::crypto::SignatureScheme scheme() const override {
    return inner_->scheme();
  }
  [[nodiscard]] std::uint64_t signs() const { return signs_; }

 private:
  pera::crypto::Signer* inner_;
  Tracer* tracer_;
  std::uint64_t signs_ = 0;
};

}  // namespace perfbench
