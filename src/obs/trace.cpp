#include "obs/trace.h"

#include <stdexcept>

namespace pera::obs {

const char* to_string(SpanKind k) {
  switch (k) {
    case SpanKind::kMeasure: return "measure";
    case SpanKind::kCacheHit: return "cache_hit";
    case SpanKind::kCacheMiss: return "cache_miss";
    case SpanKind::kSampleDecision: return "sample_decision";
    case SpanKind::kEvidenceCreate: return "evidence_create";
    case SpanKind::kEvidenceCompose: return "evidence_compose";
    case SpanKind::kSign: return "sign";
    case SpanKind::kVerify: return "verify";
    case SpanKind::kAppraise: return "appraise";
    case SpanKind::kWireEncode: return "wire_encode";
    case SpanKind::kWireDecode: return "wire_decode";
    case SpanKind::kEpochBump: return "epoch_bump";
    case SpanKind::kTrustTransition: return "trust_transition";
  }
  return "?";
}

TraceSink::TraceSink(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ == 0) {
    throw std::invalid_argument("TraceSink: capacity must be > 0");
  }
  ring_.resize(capacity_);
}

void TraceSink::set_capacity(std::size_t capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("TraceSink: capacity must be > 0");
  }
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity;
  ring_.assign(capacity_, SpanEvent{});
  head_ = 0;
  size_ = 0;
  recorded_ = 0;
  next_seq_ = 0;
}

std::size_t TraceSink::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

void TraceSink::record(SpanEvent ev) {
  std::lock_guard<std::mutex> lock(mu_);
  ev.seq = next_seq_++;
  ++recorded_;
  ring_[head_] = std::move(ev);
  head_ = (head_ + 1) % capacity_;
  if (size_ < capacity_) ++size_;
}

std::size_t TraceSink::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return size_;
}

std::uint64_t TraceSink::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_;
}

std::uint64_t TraceSink::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_ - size_;
}

std::vector<SpanEvent> TraceSink::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanEvent> out;
  out.reserve(size_);
  const std::size_t start = (head_ + capacity_ - size_) % capacity_;
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(start + i) % capacity_]);
  }
  return out;
}

void TraceSink::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  head_ = 0;
  size_ = 0;
  recorded_ = 0;
  next_seq_ = 0;
}

std::string TraceSink::to_json() const {
  const std::vector<SpanEvent> events = snapshot();
  std::uint64_t rec = 0;
  std::uint64_t drop = 0;
  std::size_t cap = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    rec = recorded_;
    drop = recorded_ - size_;
    cap = capacity_;
  }
  std::string out = "{\"capacity\":" + std::to_string(cap) +
                    ",\"recorded\":" + std::to_string(rec) +
                    ",\"dropped\":" + std::to_string(drop) + ",\"events\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const SpanEvent& e = events[i];
    if (i != 0) out += ',';
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
  out += "]}";
  return out;
}

}  // namespace pera::obs
