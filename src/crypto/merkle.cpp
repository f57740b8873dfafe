#include "crypto/merkle.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace pera::crypto {

void MerkleTree::assign(std::vector<Digest> leaves) {
  levels_.clear();
  if (!leaves.empty()) levels_.push_back(std::move(leaves));
  dirty_.clear();
  all_dirty_ = true;
  clean_ = false;
  ++stats_.full_rebuilds;
}

void MerkleTree::set_leaf(std::size_t index, const Digest& d) {
  if (index >= leaf_count()) {
    throw std::out_of_range("MerkleTree::set_leaf: index");
  }
  if (levels_[0][index] == d) return;  // no-op write: subtree stays valid
  levels_[0][index] = d;
  dirty_.push_back(index);
  clean_ = false;
  ++stats_.leaf_writes;
}

std::size_t MerkleTree::append_leaf(const Digest& d) {
  if (levels_.empty()) levels_.emplace_back();
  auto& leaves = levels_[0];
  const std::size_t index = leaves.size();
  leaves.push_back(d);
  dirty_.push_back(index);
  // The formerly-last leaf's ancestors are the last node of every level;
  // growing the tree can flip their promotion status.
  if (index > 0) dirty_.push_back(index - 1);
  clean_ = false;
  ++stats_.leaf_writes;
  return index;
}

void MerkleTree::truncate(std::size_t new_count) {
  if (new_count >= leaf_count()) return;
  ++stats_.truncates;
  if (new_count == 0) {
    reset();
    return;
  }
  levels_[0].resize(new_count);
  // The new last leaf's path covers every level's right edge, where
  // promotion status may have changed.
  dirty_.push_back(new_count - 1);
  clean_ = false;
}

void MerkleTree::reset() {
  levels_.clear();
  dirty_.clear();
  all_dirty_ = false;
  root_ = Digest{};
  clean_ = true;
}

const Digest& MerkleTree::leaf(std::size_t index) const {
  if (index >= leaf_count()) {
    throw std::out_of_range("MerkleTree::leaf: index");
  }
  return levels_[0][index];
}

const Digest& MerkleTree::root() {
  if (!clean_) flush();
  return root_;
}

MerkleProof MerkleTree::prove(std::uint64_t index) {
  if (index >= leaf_count()) {
    throw std::out_of_range("MerkleTree::prove: leaf index out of range");
  }
  if (!clean_) flush();
  MerkleProof proof;
  proof.leaf_index = index;
  std::uint64_t idx = index;
  for (std::size_t lvl = 0; lvl + 1 < levels_.size(); ++lvl) {
    const auto& nodes = levels_[lvl];
    const std::uint64_t sibling = idx ^ 1;
    // Unpaired node: mark with the zero digest; verification skips it.
    proof.siblings.push_back(sibling < nodes.size() ? nodes[sibling]
                                                    : Digest{});
    idx /= 2;
  }
  return proof;
}

void MerkleTree::flush() {
  ++stats_.flushes;
  if (levels_.empty() || levels_[0].empty()) {
    reset();
    return;
  }

  // Dirty node indices at the current level (sorted, unique, in range);
  // unused after assign(), which rebuilds every level whole.
  std::vector<std::size_t> cur;
  std::vector<std::size_t> parents;
  if (!all_dirty_) {
    cur = std::move(dirty_);
    std::sort(cur.begin(), cur.end());
    cur.erase(std::unique(cur.begin(), cur.end()), cur.end());
    while (!cur.empty() && cur.back() >= levels_[0].size()) cur.pop_back();
  }

  constexpr std::size_t kChunk = 64;  // parent nodes staged per hash batch
  alignas(32) std::uint8_t blocks[kChunk][64];
  Digest outs[kChunk];
  std::size_t staged[kChunk];

  std::size_t lvl = 0;
  while (levels_[lvl].size() > 1) {
    // Grow the outer vector *before* taking inner references: emplace_back
    // may reallocate it and would dangle them.
    if (lvl + 1 == levels_.size()) levels_.emplace_back();
    const auto& prev = levels_[lvl];
    const std::size_t next_size = (prev.size() + 1) / 2;
    auto& next = levels_[lvl + 1];
    const std::size_t old_size = next.size();
    next.resize(next_size);

    // Each left||right sibling pair is exactly one message block.
    std::size_t m = 0;
    const auto flush_batch = [&] {
      if (m == 0) return;
      sha256_block_multi(blocks, outs, m);
      for (std::size_t k = 0; k < m; ++k) next[staged[k]] = outs[k];
      stats_.nodes_rehashed += m;
      m = 0;
    };
    const auto rehash = [&](std::size_t p) {
      const std::size_t li = 2 * p;
      if (li + 1 < prev.size()) {
        std::memcpy(blocks[m], prev[li].v.data(), 32);
        std::memcpy(blocks[m] + 32, prev[li + 1].v.data(), 32);
        staged[m] = p;
        if (++m == kChunk) flush_batch();
      } else {
        next[p] = prev[li];  // promote unpaired trailing node unchanged
      }
    };
    if (all_dirty_) {
      for (std::size_t p = 0; p < next_size; ++p) rehash(p);
    } else {
      parents.clear();
      for (const std::size_t i : cur) parents.push_back(i / 2);
      // Tail nodes that appeared when the level grew (their children are
      // appended leaves' ancestors, so this is usually redundant, but it
      // keeps the invariant local to this loop).
      for (std::size_t j = old_size; j < next_size; ++j) parents.push_back(j);
      std::sort(parents.begin(), parents.end());
      parents.erase(std::unique(parents.begin(), parents.end()),
                    parents.end());
      for (const std::size_t p : parents) rehash(p);
      cur.swap(parents);
    }
    flush_batch();
    ++lvl;
  }

  levels_.resize(lvl + 1);  // drop levels left over from truncation
  root_ = levels_[lvl][0];
  dirty_.clear();
  all_dirty_ = false;
  clean_ = true;
}

Digest MerkleTree::root_from_proof(const Digest& leaf,
                                   const MerkleProof& proof) {
  Digest acc = leaf;
  std::uint64_t idx = proof.leaf_index;
  for (const Digest& sib : proof.siblings) {
    if (sib.is_zero()) {
      // Promoted unpaired node: value carries up unchanged.
    } else if (idx % 2 == 0) {
      acc = sha256_pair(acc, sib);
    } else {
      acc = sha256_pair(sib, acc);
    }
    idx /= 2;
  }
  return acc;
}

bool MerkleTree::verify(const Digest& root, const Digest& leaf,
                        const MerkleProof& proof) {
  return root_from_proof(leaf, proof) == root;
}

Bytes MerkleProof::serialize() const {
  Bytes out;
  append_u64(out, leaf_index);
  append_u32(out, static_cast<std::uint32_t>(siblings.size()));
  for (const auto& d : siblings) append(out, d);
  return out;
}

MerkleProof MerkleProof::deserialize(BytesView data) {
  MerkleProof p;
  p.leaf_index = read_u64(data, 0);
  const std::uint32_t n = read_u32(data, 8);
  if (data.size() != 12 + std::size_t{n} * 32) {
    throw std::invalid_argument("MerkleProof::deserialize: bad size");
  }
  p.siblings.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::copy(data.begin() + 12 + 32 * i, data.begin() + 12 + 32 * (i + 1),
              p.siblings[i].v.begin());
  }
  return p;
}

XmssKeyPair::XmssKeyPair(const Digest& seed, unsigned height)
    : seed_(seed), height_(height) {
  if (height > 20) {
    throw std::invalid_argument("XmssKeyPair: height too large (max 20)");
  }
  const std::uint64_t n = std::uint64_t{1} << height;
  std::vector<Digest> leaves;
  leaves.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto sk = wots::keygen_secret(seed_, i);
    leaves.push_back(wots::derive_public(sk).compressed);
  }
  tree_.assign(std::move(leaves));
  root_ = tree_.root();
}

XmssSignature XmssKeyPair::sign(const Digest& message) {
  if (exhausted()) {
    throw std::runtime_error("XmssKeyPair::sign: one-time keys exhausted");
  }
  const std::uint64_t leaf = next_leaf_++;
  XmssSignature sig;
  sig.leaf_index = leaf;
  sig.ots = wots::sign(wots::keygen_secret(seed_, leaf), message);
  sig.auth_path = tree_.prove(leaf);
  return sig;
}

bool XmssKeyPair::verify(const Digest& public_root, const Digest& message,
                         const XmssSignature& sig) {
  if (sig.auth_path.leaf_index != sig.leaf_index) return false;
  const wots::PublicKey implied = wots::recover_public(sig.ots, message);
  return MerkleTree::verify(public_root, implied.compressed, sig.auth_path);
}

Bytes XmssSignature::serialize() const {
  Bytes out;
  append_u64(out, leaf_index);
  const Bytes ots_bytes = ots.serialize();
  append_u32(out, static_cast<std::uint32_t>(ots_bytes.size()));
  append(out, BytesView{ots_bytes.data(), ots_bytes.size()});
  const Bytes path = auth_path.serialize();
  append_u32(out, static_cast<std::uint32_t>(path.size()));
  append(out, BytesView{path.data(), path.size()});
  return out;
}

XmssSignature XmssSignature::deserialize(BytesView data) {
  XmssSignature sig;
  sig.leaf_index = read_u64(data, 0);
  const std::uint32_t ots_len = read_u32(data, 8);
  std::size_t off = 12;
  if (off + ots_len > data.size()) {
    throw std::invalid_argument("XmssSignature::deserialize: truncated OTS");
  }
  sig.ots = wots::Signature::deserialize(data.subspan(off, ots_len));
  off += ots_len;
  const std::uint32_t path_len = read_u32(data, off);
  off += 4;
  if (off + path_len != data.size()) {
    throw std::invalid_argument("XmssSignature::deserialize: bad path size");
  }
  sig.auth_path = MerkleProof::deserialize(data.subspan(off, path_len));
  return sig;
}

std::size_t XmssSignature::wire_size() const { return serialize().size(); }

}  // namespace pera::crypto
