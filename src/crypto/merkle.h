// Merkle trees and an XMSS-style many-time signature scheme.
//
// MerkleTree is the one Merkle tree in the system. It keeps every level in
// a persistent node store and recomputes only the paths of leaves written
// since the last root(), so re-digesting mutable state (table entries,
// register chunks, fleet members) costs O(changes) instead of O(state).
// The same store answers prove(): XMSS authentication paths and the
// out-of-band batcher's receipts.
//
// Build rule: sibling pairs hash with sha256_pair semantics; an unpaired
// trailing node is promoted unchanged (its proof slot carries the zero
// digest, which verification skips). An empty tree has the all-zero root.
// Dirty parents are hashed level by level through the backend engine's
// multi-buffer SHA-256 lanes (sha256_block_multi).
//
// Not thread-safe: root() and prove() flush the node store.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/bytes.h"
#include "crypto/sha256.h"
#include "crypto/wots.h"

namespace pera::crypto {

/// Authentication path for one leaf: sibling digests bottom-up.
struct MerkleProof {
  std::uint64_t leaf_index = 0;
  std::vector<Digest> siblings;

  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static MerkleProof deserialize(BytesView data);
};

class MerkleTree {
 public:
  /// Cumulative work counters, for the dataplane.digest.* metrics and the
  /// O(changes) assertions in tests/bench.
  struct Stats {
    std::uint64_t leaf_writes = 0;     // set_leaf / append_leaf calls
    std::uint64_t truncates = 0;
    std::uint64_t flushes = 0;         // root() calls that had work to do
    std::uint64_t nodes_rehashed = 0;  // inner nodes recomputed by hashing
    std::uint64_t full_rebuilds = 0;   // assign() calls
  };

  MerkleTree() = default;
  explicit MerkleTree(std::vector<Digest> leaves) { assign(std::move(leaves)); }

  /// Replace the whole leaf set (full O(n) rebuild on next root()).
  void assign(std::vector<Digest> leaves);

  /// Overwrite leaf `index`; only its root path is recomputed on the next
  /// root(). Throws std::out_of_range.
  void set_leaf(std::size_t index, const Digest& d);

  /// Append a leaf; returns its index. The previous last leaf's path is
  /// also marked dirty (its promotion status may have changed).
  std::size_t append_leaf(const Digest& d);

  /// Drop trailing leaves until `new_count` remain. No-op when new_count
  /// >= leaf_count(). truncate(0) empties the tree (all-zero root).
  void truncate(std::size_t new_count);

  void clear() { truncate(0); }

  [[nodiscard]] std::size_t leaf_count() const {
    return levels_.empty() ? 0 : levels_[0].size();
  }
  [[nodiscard]] const Digest& leaf(std::size_t index) const;

  /// Recompute dirty paths (if any) and return the cached root.
  [[nodiscard]] const Digest& root();

  /// Authentication path for leaf `index` (flushes first). Throws
  /// std::out_of_range.
  [[nodiscard]] MerkleProof prove(std::uint64_t index);

  /// True when root() would have to rehash something.
  [[nodiscard]] bool dirty() const { return !clean_; }

  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Recompute the root implied by (leaf, proof).
  [[nodiscard]] static Digest root_from_proof(const Digest& leaf,
                                              const MerkleProof& proof);

  /// Full verification against a known root.
  [[nodiscard]] static bool verify(const Digest& root, const Digest& leaf,
                                   const MerkleProof& proof);

 private:
  void flush();
  void reset();  // no leaves, all-zero root, clean

  std::vector<std::vector<Digest>> levels_;  // levels_[0] = leaves
  std::vector<std::size_t> dirty_;           // dirty leaf indices (dups ok)
  bool all_dirty_ = false;                   // assign() pending
  bool clean_ = true;                        // root_ matches the leaves
  Digest root_{};
  Stats stats_;
};

/// XMSS-style many-time signature: a Merkle tree over 2^height WOTS public
/// keys. The signer is *stateful* — each signature consumes one leaf.
struct XmssSignature {
  std::uint64_t leaf_index = 0;
  wots::Signature ots;
  MerkleProof auth_path;

  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static XmssSignature deserialize(BytesView data);
  [[nodiscard]] std::size_t wire_size() const;
};

class XmssKeyPair {
 public:
  /// Generate a keypair with 2^height one-time keys from `seed`.
  XmssKeyPair(const Digest& seed, unsigned height);

  [[nodiscard]] const Digest& public_root() const { return root_; }
  [[nodiscard]] std::uint64_t capacity() const { return std::uint64_t{1} << height_; }
  [[nodiscard]] std::uint64_t signatures_used() const { return next_leaf_; }
  [[nodiscard]] bool exhausted() const { return next_leaf_ >= capacity(); }

  /// Sign a message digest, consuming the next leaf.
  /// Throws std::runtime_error when the keypair is exhausted.
  [[nodiscard]] XmssSignature sign(const Digest& message);

  /// Verify a signature against a public root.
  [[nodiscard]] static bool verify(const Digest& public_root,
                                   const Digest& message,
                                   const XmssSignature& sig);

 private:
  Digest seed_{};
  unsigned height_;
  std::uint64_t next_leaf_ = 0;
  MerkleTree tree_;
  Digest root_{};
};

}  // namespace pera::crypto
