// Reference Merkle tree for differential tests: every level rebuilt from
// the leaves with sha256_pair, one pair at a time (no node store, no
// multi-buffer lanes), an unpaired trailing node promoted unchanged and
// marked by the zero digest in proofs. crypto::MerkleTree must agree with
// it on the root and on every leaf's proof, whatever sequence of
// set_leaf/append_leaf/truncate brought it to the same leaves.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "crypto/merkle.h"
#include "crypto/sha256.h"

namespace pera::crypto::oracle {

class MerkleReference {
 public:
  explicit MerkleReference(std::vector<Digest> leaves) {
    if (leaves.empty()) return;
    levels_.push_back(std::move(leaves));
    while (levels_.back().size() > 1) {
      const std::vector<Digest>& prev = levels_.back();
      std::vector<Digest> next;
      for (std::size_t i = 0; i < prev.size(); i += 2) {
        next.push_back(i + 1 < prev.size() ? sha256_pair(prev[i], prev[i + 1])
                                           : prev[i]);
      }
      levels_.push_back(std::move(next));
    }
  }

  /// The all-zero digest for an empty tree.
  [[nodiscard]] Digest root() const {
    return levels_.empty() ? Digest{} : levels_.back()[0];
  }

  [[nodiscard]] MerkleProof prove(std::uint64_t index) const {
    if (levels_.empty() || index >= levels_[0].size()) {
      throw std::out_of_range("MerkleReference::prove: leaf index");
    }
    MerkleProof proof;
    proof.leaf_index = index;
    for (std::size_t lvl = 0; lvl + 1 < levels_.size(); ++lvl) {
      const std::uint64_t sibling = index % 2 == 0 ? index + 1 : index - 1;
      proof.siblings.push_back(sibling < levels_[lvl].size()
                                   ? levels_[lvl][sibling]
                                   : Digest{});
      index /= 2;
    }
    return proof;
  }

 private:
  std::vector<std::vector<Digest>> levels_;  // levels_[0] = leaves
};

inline Digest merkle_root(std::vector<Digest> leaves) {
  return MerkleReference(std::move(leaves)).root();
}

}  // namespace pera::crypto::oracle
