#include "trace.h"

#include <cstdio>

namespace perfbench {

std::uint32_t Tracer::open(std::string_view name) {
  std::uint16_t id = 0;
  while (id < names_.size() && names_[id].data() != name.data()) ++id;
  if (id == names_.size()) names_.push_back(name);
  Span s;
  s.name = id;
  s.parent = stack_.empty() ? -1 : static_cast<std::int32_t>(stack_.back());
  const auto idx = static_cast<std::uint32_t>(spans_.size());
  stack_.push_back(idx);
  s.start = now_ns();
  spans_.push_back(s);
  return idx;
}

void Tracer::close(std::uint32_t idx) {
  spans_[idx].end = now_ns();
  stack_.pop_back();
}

std::vector<double> Tracer::child_ns() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end - s.start);
    }
  }
  return child;
}

std::map<std::string, Tracer::Stat> Tracer::stats() const {
  const std::vector<double> child = child_ns();
  std::map<std::string, Stat> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Stat& st = out[std::string(names_[s.name])];
    const auto dur = static_cast<double>(s.end - s.start);
    ++st.calls;
    st.total_ns += dur;
    st.self_ns += dur - child[i];
  }
  return out;
}

std::map<std::string, double> Tracer::ladder_self_ns() const {
  const std::vector<double> child = child_ns();
  // A span is on the ladder when its root is an "op" span.
  std::vector<std::int8_t> on_ladder(spans_.size(), 0);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent < 0) {
      on_ladder[i] = names_[s.name] == "op" ? 2 : 0;  // 2 = the root itself
      continue;
    }
    on_ladder[i] = on_ladder[static_cast<std::size_t>(s.parent)] != 0 ? 1 : 0;
    if (on_ladder[i] == 1) {
      out[std::string(names_[s.name])] +=
          static_cast<double>(s.end - s.start) - child[i];
    }
  }
  return out;
}

bool Tracer::write_jsonl(const std::string& path, std::size_t max_spans) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start;
  for (std::size_t i = 0; i < spans_.size() && i < max_spans; ++i) {
    const Span& s = spans_[i];
    const std::string name(names_[s.name]);
    std::fprintf(f, "{\"name\":\"%s\",\"parent\":%d,\"start\":%lld,\"end\":%lld}\n",
                 name.c_str(), s.parent,
                 static_cast<long long>(s.start - t0),
                 static_cast<long long>(s.end - t0));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
