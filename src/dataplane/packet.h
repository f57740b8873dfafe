// Packet representations for the software switch.
//
// RawPacket is bytes on a wire. ParsedPacket is the PISA-internal view: a
// fixed-layout PHV laid out by the program's lowered form (lowered.h) —
// one value slot per schema field, header validity bits, the extraction
// order — plus standard metadata. The unparsed payload is not copied out:
// the packet borrows the ingress bytes, so the RawPacket it was parsed
// from must outlive it, as must the program that parsed it.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "crypto/bytes.h"
#include "dataplane/field.h"

namespace pera::dataplane {

using crypto::Bytes;
using crypto::BytesView;

class LoweredProgram;

/// Bytes on the wire plus the arrival port.
struct RawPacket {
  std::uint32_t port = 0;
  Bytes data;
};

/// Standard intrinsic metadata (a subset of v1model's).
struct Metadata {
  std::uint32_t ingress_port = 0;
  std::uint32_t egress_port = 0;
  bool drop = false;
  std::uint64_t packet_id = 0;   // simulator-assigned
  std::uint64_t user0 = 0;       // scratch metadata for programs
  std::uint64_t user1 = 0;
};

/// One extracted header instance, as the name-based accessors see it.
struct HeaderView {
  const HeaderSpec* spec = nullptr;         // borrowed from the program
  std::span<const std::uint64_t> values;    // parallel to spec->fields
};

/// The switch-internal packet view (the PHV).
class ParsedPacket {
 public:
  Metadata meta;

  // Name-based accessors, for guards, tests and the NetKAT bridge. The
  // pipeline itself reads and writes pre-resolved slots.
  [[nodiscard]] bool has(const std::string& header) const;

  /// Read "header.field" from the first instance of the header; throws
  /// std::out_of_range if the header is absent or has no such field.
  [[nodiscard]] std::uint64_t get(const std::string& ref) const;

  /// Extracted headers, in wire order.
  [[nodiscard]] std::vector<HeaderView> headers() const;

  /// The unparsed tail: a view into the ingress bytes.
  [[nodiscard]] BytesView payload() const {
    return wire_.subspan(payload_offset_);
  }

  /// True when the match-action pipeline faulted on this packet (an op
  /// touched an absent header, a register index was out of range, ...):
  /// the packet is dropped and counted in SwitchStats::pipeline_faults.
  [[nodiscard]] bool faulted() const { return faulted_; }

 private:
  friend class LoweredProgram;

  [[nodiscard]] bool valid(std::uint32_t header) const {
    return ((valid_ >> header) & 1) != 0;
  }

  // Slot values: one per schema field, then the fields of repeated
  // headers. Small PHVs stay inline (no allocation per packet).
  static constexpr std::size_t kInlineSlots = 32;
  [[nodiscard]] std::uint64_t* slots() {
    return heap_.empty() ? inline_.data() : heap_.data();
  }
  [[nodiscard]] const std::uint64_t* slots() const {
    return heap_.empty() ? inline_.data() : heap_.data();
  }
  /// Grow to `n` slots; the new ones are zero.
  void grow_slots(std::size_t n);

  const LoweredProgram* program_ = nullptr;
  BytesView wire_;
  std::size_t payload_offset_ = 0;
  std::uint64_t valid_ = 0;  // bit h: header h extracted (slots at its base)
  std::uint64_t dirty_ = 0;  // bit h: a field of header h was written
  bool faulted_ = false;
  std::array<std::uint64_t, kInlineSlots> inline_{};
  std::vector<std::uint64_t> heap_;  // used instead once inline_ is too small
  std::size_t slot_count_ = 0;
  // Header ids in extraction (= wire) order; the parser's 64-state bound
  // caps their number.
  std::array<std::uint8_t, 64> order_{};
  std::uint8_t extracted_ = 0;
};

/// Serialize field values into bytes per the spec (big-endian bit packing;
/// bits after the last field are zero). Throws std::invalid_argument on a
/// value count mismatch or a field width outside 1..64.
[[nodiscard]] Bytes pack_header(const HeaderSpec& spec,
                                const std::vector<std::uint64_t>& values);

/// Extract field values from bytes. Throws std::invalid_argument if the
/// buffer is shorter than the header or a field width is outside 1..64.
[[nodiscard]] std::vector<std::uint64_t> unpack_header(const HeaderSpec& spec,
                                                       BytesView data);

/// The low `bits` bits set.
[[nodiscard]] inline std::uint64_t low_mask(unsigned bits) {
  return bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
}

/// Bit-level field codec shared by pack/unpack and the lowered parser and
/// deparser: `bits` (1..64) bits at bit offset `offset` of `p`, MSB first.
/// Inline: the parser calls it once per extracted field.
[[nodiscard]] inline std::uint64_t read_bits(const std::uint8_t* p,
                                             std::size_t offset,
                                             unsigned bits) {
  const std::uint8_t* b = p + offset / 8;
  const unsigned lead = static_cast<unsigned>(offset % 8);
  const unsigned span = (lead + bits + 7) / 8;  // bytes touched, <= 9
  unsigned __int128 acc = 0;
  for (unsigned i = 0; i < span; ++i) acc = (acc << 8) | b[i];
  return static_cast<std::uint64_t>(acc >> (span * 8 - lead - bits)) &
         low_mask(bits);
}

inline void write_bits(std::uint8_t* p, std::size_t offset, unsigned bits,
                       std::uint64_t value) {
  std::uint8_t* b = p + offset / 8;
  const unsigned lead = static_cast<unsigned>(offset % 8);
  const unsigned span = (lead + bits + 7) / 8;
  const unsigned shift = span * 8 - lead - bits;
  unsigned __int128 acc = 0;
  for (unsigned i = 0; i < span; ++i) acc = (acc << 8) | b[i];
  const unsigned __int128 field = static_cast<unsigned __int128>(low_mask(bits))
                                  << shift;
  acc = (acc & ~field) |
        (static_cast<unsigned __int128>(value & low_mask(bits)) << shift);
  for (unsigned i = span; i-- > 0;) {
    b[i] = static_cast<std::uint8_t>(acc);
    acc >>= 8;
  }
}

}  // namespace pera::dataplane
