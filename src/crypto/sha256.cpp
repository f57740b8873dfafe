#include "crypto/sha256.h"

#include <algorithm>
#include <cstring>

namespace pera::crypto {

namespace {

inline void store_be64(std::uint8_t* p, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<std::uint8_t>(x >> (56 - 8 * i));
  }
}

}  // namespace

void Sha256::reset() {
  std::memcpy(state_, engine::kInit, sizeof(state_));
  buffer_len_ = 0;
  total_bits_ = 0;
}

void Sha256::process_block(const std::uint8_t* block) {
  engine::compress(state_, block);
}

Sha256& Sha256::update(BytesView data) {
  total_bits_ += static_cast<std::uint64_t>(data.size()) * 8;
  std::size_t i = 0;
  if (buffer_len_ > 0) {
    i = std::min<std::size_t>(64 - buffer_len_, data.size());
    std::memcpy(buffer_ + buffer_len_, data.data(), i);
    buffer_len_ += i;
    if (buffer_len_ == 64) {
      process_block(buffer_);
      buffer_len_ = 0;
    }
  }
  while (i + 64 <= data.size()) {
    process_block(data.data() + i);
    i += 64;
  }
  if (i < data.size()) {
    std::memcpy(buffer_ + buffer_len_, data.data() + i, data.size() - i);
    buffer_len_ += data.size() - i;
  }
  return *this;
}

void Sha256::extract_digest(Digest& out) const {
  for (int i = 0; i < 8; ++i) {
    out.v[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out.v[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out.v[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out.v[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
}

void Sha256::export_state(std::uint32_t out[8]) const {
  std::memcpy(out, state_, sizeof(state_));
}

Digest Sha256::finish() {
  // Padding assembled directly in the block buffer — no byte-at-a-time
  // update loop on the (hot) HMAC finish path.
  const std::uint64_t bits = total_bits_;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_ + buffer_len_, 0, 64 - buffer_len_);
    process_block(buffer_);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  store_be64(buffer_ + 56, bits);
  process_block(buffer_);

  Digest out;
  extract_digest(out);
  return out;
}

void Sha256::digest_into(BytesView data, Digest& out) {
  Sha256 h;
  const std::size_t n = data.size();
  std::size_t i = 0;
  while (i + 64 <= n) {
    h.process_block(data.data() + i);
    i += 64;
  }

  // Tail + padding assembled in scratch blocks (no streaming buffer).
  const std::size_t rem = n - i;
  std::uint8_t block[64] = {};
  if (rem > 0) std::memcpy(block, data.data() + i, rem);
  block[rem] = 0x80;
  const std::uint64_t bits = static_cast<std::uint64_t>(n) * 8;
  if (rem < 56) {
    store_be64(block + 56, bits);
    h.process_block(block);
  } else {
    h.process_block(block);
    std::uint8_t last[64] = {};
    store_be64(last + 56, bits);
    h.process_block(last);
  }
  h.extract_digest(out);
}

Digest sha256(BytesView data) {
  Digest out;
  Sha256::digest_into(data, out);
  return out;
}

Digest sha256(std::string_view s) { return sha256(as_bytes(s)); }

Digest sha256_pair(const Digest& left, const Digest& right) {
  // Exactly one aligned block: the digest_into fast path compresses it
  // straight off the stack — the Merkle proof-path combiner runs on this.
  std::uint8_t block[64];
  std::memcpy(block, left.v.data(), 32);
  std::memcpy(block + 32, right.v.data(), 32);
  Digest out;
  Sha256::digest_into(BytesView{block, 64}, out);
  return out;
}

void sha256_block_multi(const std::uint8_t (*blocks)[64], Digest* out,
                        std::size_t n) {
  using engine::kMaxLanes;
  const engine::Backend& be = engine::active();
  const std::size_t lanes =
      be.lanes < 1 ? 1 : (be.lanes > kMaxLanes ? kMaxLanes : be.lanes);

  // The second compression round is the same padding block for every
  // lane: after 64 message bytes, 0x80 then the 512-bit big-endian
  // length (0x0200 at bytes 62..63).
  struct PadLanes {
    alignas(32) std::uint8_t b[kMaxLanes][64]{};
    PadLanes() {
      for (auto& blk : b) {
        blk[0] = 0x80;
        blk[62] = 2;
      }
    }
  };
  static const PadLanes pad;

  std::uint32_t states[kMaxLanes][8];
  for (std::size_t base = 0; base < n; base += lanes) {
    const std::size_t m = base + lanes <= n ? lanes : n - base;
    for (std::size_t j = 0; j < m; ++j) {
      std::memcpy(states[j], engine::kInit, sizeof(states[j]));
    }
    be.compress_multi(states, blocks + base, m);
    be.compress_multi(states, pad.b, m);
    for (std::size_t j = 0; j < m; ++j) {
      for (int i = 0; i < 8; ++i) {
        const std::uint32_t x = states[j][i];
        out[base + j].v[4 * i] = static_cast<std::uint8_t>(x >> 24);
        out[base + j].v[4 * i + 1] = static_cast<std::uint8_t>(x >> 16);
        out[base + j].v[4 * i + 2] = static_cast<std::uint8_t>(x >> 8);
        out[base + j].v[4 * i + 3] = static_cast<std::uint8_t>(x);
      }
    }
  }
}

}  // namespace pera::crypto
