#include "dataplane/packet.h"

#include <algorithm>
#include <stdexcept>

#include "dataplane/lowered.h"

namespace pera::dataplane {

namespace {

void check_widths(const HeaderSpec& spec) {
  for (const auto& f : spec.fields) {
    if (f.bits == 0 || f.bits > 64) {
      throw std::invalid_argument("header " + spec.name + ": field '" +
                                  f.name + "' width must be 1..64");
    }
  }
}

}  // namespace

void ParsedPacket::grow_slots(std::size_t n) {
  if (heap_.empty() && n <= kInlineSlots) {
    std::fill(inline_.begin() + static_cast<std::ptrdiff_t>(slot_count_),
              inline_.begin() + static_cast<std::ptrdiff_t>(n), 0);
  } else {
    if (heap_.empty()) {
      heap_.assign(inline_.begin(),
                   inline_.begin() + static_cast<std::ptrdiff_t>(slot_count_));
    }
    heap_.resize(n, 0);
  }
  slot_count_ = n;
}

bool ParsedPacket::has(const std::string& header) const {
  if (program_ == nullptr) return false;
  const int h = program_->header_id(header);
  return h >= 0 && valid(static_cast<std::uint32_t>(h));
}

std::uint64_t ParsedPacket::get(const std::string& ref) const {
  const FieldRef r = parse_field_ref(ref);
  if (!has(r.header)) {
    throw std::out_of_range("header '" + r.header + "' not present");
  }
  const auto h = static_cast<std::uint32_t>(program_->header_id(r.header));
  const int f = program_->spec(h).field_index(r.field);
  if (f < 0) {
    throw std::out_of_range("no field '" + r.field + "' in header " + r.header);
  }
  return slots()[program_->base(h) + static_cast<std::size_t>(f)];
}

std::vector<HeaderView> ParsedPacket::headers() const {
  std::vector<HeaderView> out;
  if (program_ == nullptr) return out;
  out.reserve(extracted_);
  program_->walk(*this, [&](std::uint32_t h, std::uint32_t base, std::size_t) {
    const HeaderSpec& spec = program_->spec(h);
    out.push_back({&spec, std::span<const std::uint64_t>(slots() + base,
                                                         spec.fields.size())});
  });
  return out;
}

Bytes pack_header(const HeaderSpec& spec,
                  const std::vector<std::uint64_t>& values) {
  if (values.size() != spec.fields.size()) {
    throw std::invalid_argument("pack_header: value count mismatch");
  }
  check_widths(spec);
  Bytes out(spec.byte_width(), 0);
  std::size_t bit_pos = 0;
  for (std::size_t i = 0; i < spec.fields.size(); ++i) {
    write_bits(out.data(), bit_pos, spec.fields[i].bits, values[i]);
    bit_pos += spec.fields[i].bits;
  }
  return out;
}

std::vector<std::uint64_t> unpack_header(const HeaderSpec& spec,
                                         BytesView data) {
  if (data.size() < spec.byte_width()) {
    throw std::invalid_argument("unpack_header: buffer shorter than header " +
                                spec.name);
  }
  check_widths(spec);
  std::vector<std::uint64_t> values(spec.fields.size(), 0);
  std::size_t bit_pos = 0;
  for (std::size_t i = 0; i < spec.fields.size(); ++i) {
    values[i] = read_bits(data.data(), bit_pos, spec.fields[i].bits);
    bit_pos += spec.fields[i].bits;
  }
  return values;
}

}  // namespace pera::dataplane
