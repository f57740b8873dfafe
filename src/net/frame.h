// Length-prefixed framing for the real-socket evidence transport.
//
// TCP delivers a byte stream, not messages: one read() may return half a
// frame, three frames, or a frame and a half. Every protocol message
// therefore rides inside a frame
//
//   u32 BE  length   (of everything after this word: type byte + payload)
//   u8      type     (FrameType)
//   bytes   payload  (length - 1 bytes)
//
// and FrameDecoder reassembles frames from arbitrary byte arrivals —
// torn reads, coalesced frames, single-byte drips — emitting identical
// frame sequences regardless of how the stream was split (the torn-read
// differential test in test_net.cpp pins this down for every split
// point). The decoder is the first thing untrusted bytes touch, so it is
// strict: a zero length, an unknown type or a length beyond
// kMaxFramePayload poisons the stream permanently (the connection must
// be dropped) rather than resynchronising on attacker-controlled input.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>

#include "crypto/bytes.h"

namespace pera::net {

enum class FrameType : std::uint8_t {
  kHello = 1,      // first frame of a session: place + nonce + quote
  kHelloAck = 2,   // appraiser's admit/reject (+ counter-quote in mutual)
  kEvidence = 3,   // core::EvidenceMsg — one attestation round's evidence
  kResult = 4,     // ra::Certificate — the appraiser's signed verdict
  kChallenge = 5,  // place-addressed core::Challenge (relying-party path)
  kBye = 6,        // graceful close (empty payload)
};

[[nodiscard]] const char* to_string(FrameType t);
[[nodiscard]] bool known_frame_type(std::uint8_t t);

/// Hard ceiling on one frame's payload. Evidence for a full-detail round
/// is a few KiB; 1 MiB leaves two orders of magnitude of headroom while
/// capping what one malicious peer can make the decoder buffer.
inline constexpr std::size_t kMaxFramePayload = 1 << 20;

/// Bytes of framing around a payload (length word + type byte).
inline constexpr std::size_t kFrameOverhead = 5;

struct Frame {
  FrameType type = FrameType::kBye;
  crypto::Bytes payload;
};

/// Append one encoded frame to `out` (the write-side primitive — sessions
/// queue frames back to back in their outbox, and the driver sends the
/// whole run with one write_some()).
void append_frame(crypto::Bytes& out, FrameType type,
                  crypto::BytesView payload);

[[nodiscard]] crypto::Bytes encode_frame(FrameType type,
                                         crypto::BytesView payload);

/// Incremental frame reassembly. feed() accepts whatever the socket
/// produced; next() pops completed frames in order. After an error the
/// decoder stays poisoned: feed() returns false and next() returns
/// nothing.
class FrameDecoder {
 public:
  /// Buffering cap: a peer that sends an (otherwise valid) length prefix
  /// must deliver the frame within this much buffered data; the default
  /// fits the largest legal frame exactly.
  explicit FrameDecoder(std::size_t max_payload = kMaxFramePayload)
      : max_payload_(max_payload) {}

  /// Returns false when the stream is (or just became) poisoned.
  bool feed(crypto::BytesView data);

  /// Pop the next completed frame, if any.
  [[nodiscard]] std::optional<Frame> next();

  [[nodiscard]] bool error() const { return !error_.empty(); }
  [[nodiscard]] const std::string& error_text() const { return error_; }

  /// Bytes buffered but not yet emitted as frames (bounded by one frame
  /// plus one read chunk; the compaction keeps it from creeping).
  [[nodiscard]] std::size_t buffered() const { return buf_.size() - head_; }

  [[nodiscard]] std::uint64_t frames_decoded() const {
    return frames_decoded_;
  }

 private:
  void poison(std::string why);

  std::size_t max_payload_;
  crypto::Bytes buf_;
  std::size_t head_ = 0;  // consumed prefix of buf_ (compacted lazily)
  std::deque<Frame> ready_;
  std::string error_;
  std::uint64_t frames_decoded_ = 0;
};

}  // namespace pera::net
