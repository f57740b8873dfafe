// Stateful register arrays — the "Prog. State" row of Fig. 4's inertia
// axis. Register contents can be digested so PERA can attest program
// state, not just program code.
//
// state_digest() is a Merkle root over fixed-size value chunks (64
// registers per leaf) plus one schema leaf per array, maintained
// incrementally: write() sets a bit in a per-array dirty-chunk bitmap and
// only dirty chunks are rehashed at the next digest, so re-attestation
// costs O(writes since last epoch) instead of O(registers). The O(n)
// reference recompute the tests and bench_state hold it to lives in
// tests/table_oracle.h, over schema_leaf() and chunk_leaf().
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "crypto/bytes.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"

namespace pera::dataplane {

class RegisterFile {
 public:
  /// Values per Merkle leaf (64 x u64 = one 512-byte chunk).
  static constexpr std::size_t kChunkValues = 64;

  /// Declare a register array. Re-declaring resizes and zeroes it.
  /// Returns the array's handle: handles number distinct names in the
  /// order they were first declared, so a program's lowered form can
  /// address registers without name lookups.
  std::size_t declare(const std::string& name, std::size_t size);

  [[nodiscard]] bool has(const std::string& name) const {
    return index_.contains(name);
  }

  /// Read; throws std::out_of_range on unknown register or bad index.
  [[nodiscard]] std::uint64_t read(const std::string& name,
                                   std::size_t index) const;

  /// Write; throws std::out_of_range on unknown register or bad index.
  /// Writing the value already stored is a no-op: it bumps no counter and
  /// dirties no chunk, so cached evidence stays valid.
  void write(const std::string& name, std::size_t index, std::uint64_t value);

  /// Handle-addressed read/write for the per-packet path: false when
  /// `index` is out of range (nothing is read or written). The handle
  /// must come from declare().
  [[nodiscard]] bool read_at(std::size_t handle, std::size_t index,
                             std::uint64_t& out) const;
  [[nodiscard]] bool write_at(std::size_t handle, std::size_t index,
                              std::uint64_t value);

  [[nodiscard]] std::size_t size(const std::string& name) const {
    return values(name).size();
  }

  /// An array's values; throws std::out_of_range on unknown register.
  [[nodiscard]] const std::vector<std::uint64_t>& values(
      const std::string& name) const;

  /// Declared array names, in digest (name) order.
  [[nodiscard]] std::vector<std::string> names() const;

  /// Merkle root of all register contents (name-ordered) — the
  /// program-state measurement PERA attests at the kProgramState inertia
  /// level. Incremental: only chunks written since the last call rehash.
  [[nodiscard]] crypto::Digest state_digest() const;

  /// Merkle leaves: one schema leaf per array, then one per value chunk.
  [[nodiscard]] static crypto::Digest schema_leaf(const std::string& name,
                                                  std::size_t size);
  [[nodiscard]] static crypto::Digest chunk_leaf(
      const std::vector<std::uint64_t>& values, std::size_t chunk);

  /// Number of value-changing writes since construction.
  [[nodiscard]] std::uint64_t write_count() const { return writes_; }

  /// Monotone state revision: advances on every mutation that can change
  /// state_digest() (value-changing writes and array (re)declarations).
  /// Measurement epochs derive from this.
  [[nodiscard]] std::uint64_t revision() const { return writes_ + decls_; }

 private:
  struct Reg {
    std::vector<std::uint64_t> values;
    // Digest-cache bookkeeping, mutated by the const digest path.
    mutable std::size_t leaf_base = 0;                // first leaf in tree
    mutable std::vector<std::uint64_t> dirty_chunks;  // 1 bit per chunk
  };

  void rebuild_tree() const;

  [[nodiscard]] std::size_t handle_of(const std::string& name) const;

  std::vector<Reg> regs_;                      // by handle
  std::map<std::string, std::size_t> index_;  // name -> handle; digest order
  std::uint64_t writes_ = 0;
  std::uint64_t decls_ = 0;

  mutable crypto::MerkleTree tree_;
  mutable bool tree_init_ = false;
  mutable bool layout_stale_ = false;  // declare() since the last (re)build
};

}  // namespace pera::dataplane
