#include "dataplane/registers.h"

#include <stdexcept>

#include "obs/obs.h"

namespace pera::dataplane {

std::size_t RegisterFile::declare(const std::string& name, std::size_t size) {
  const auto [it, fresh] = index_.emplace(name, regs_.size());
  if (fresh) regs_.emplace_back();
  regs_[it->second] = Reg{std::vector<std::uint64_t>(size, 0), 0, {}};
  ++decls_;
  layout_stale_ = true;
  return it->second;
}

std::size_t RegisterFile::handle_of(const std::string& name) const {
  const auto it = index_.find(name);
  if (it == index_.end()) {
    throw std::out_of_range("register '" + name + "' not declared");
  }
  return it->second;
}

std::uint64_t RegisterFile::read(const std::string& name,
                                 std::size_t index) const {
  std::uint64_t value = 0;
  if (!read_at(handle_of(name), index, value)) {
    throw std::out_of_range("register '" + name + "' index " +
                            std::to_string(index) + " out of range");
  }
  return value;
}

void RegisterFile::write(const std::string& name, std::size_t index,
                         std::uint64_t value) {
  if (!write_at(handle_of(name), index, value)) {
    throw std::out_of_range("register '" + name + "' index " +
                            std::to_string(index) + " out of range");
  }
}

bool RegisterFile::read_at(std::size_t handle, std::size_t index,
                           std::uint64_t& out) const {
  const Reg& reg = regs_[handle];
  if (index >= reg.values.size()) return false;
  out = reg.values[index];
  return true;
}

bool RegisterFile::write_at(std::size_t handle, std::size_t index,
                            std::uint64_t value) {
  Reg& reg = regs_[handle];
  if (index >= reg.values.size()) return false;
  if (reg.values[index] == value) return true;  // no-op write
  reg.values[index] = value;
  ++writes_;
  if (tree_init_ && !layout_stale_) {
    const std::size_t chunk = index / kChunkValues;
    reg.dirty_chunks[chunk / 64] |= std::uint64_t{1} << (chunk % 64);
  }
  return true;
}

const std::vector<std::uint64_t>& RegisterFile::values(
    const std::string& name) const {
  return regs_[handle_of(name)].values;
}

std::vector<std::string> RegisterFile::names() const {
  std::vector<std::string> out;
  out.reserve(index_.size());
  for (const auto& entry : index_) out.push_back(entry.first);
  return out;
}

crypto::Digest RegisterFile::schema_leaf(const std::string& name,
                                         std::size_t size) {
  crypto::Bytes buf;
  crypto::append(buf, crypto::as_bytes("pera.reg.schema.v1"));
  crypto::append_u32(buf, static_cast<std::uint32_t>(name.size()));
  crypto::append(buf, crypto::as_bytes(name));
  crypto::append_u64(buf, size);
  return crypto::sha256(crypto::BytesView{buf.data(), buf.size()});
}

crypto::Digest RegisterFile::chunk_leaf(
    const std::vector<std::uint64_t>& values, std::size_t chunk) {
  const std::size_t begin = chunk * kChunkValues;
  const std::size_t end =
      begin + kChunkValues < values.size() ? begin + kChunkValues
                                           : values.size();
  crypto::Bytes buf;
  buf.reserve((end - begin) * 8);
  for (std::size_t i = begin; i < end; ++i) crypto::append_u64(buf, values[i]);
  crypto::Digest out;
  crypto::Sha256::digest_into(crypto::BytesView{buf.data(), buf.size()}, out);
  return out;
}

void RegisterFile::rebuild_tree() const {
  std::vector<crypto::Digest> leaves;
  for (const auto& [name, handle] : index_) {
    const Reg& reg = regs_[handle];
    reg.leaf_base = leaves.size();
    leaves.push_back(schema_leaf(name, reg.values.size()));
    const std::size_t chunks =
        (reg.values.size() + kChunkValues - 1) / kChunkValues;
    for (std::size_t c = 0; c < chunks; ++c) {
      leaves.push_back(chunk_leaf(reg.values, c));
    }
    reg.dirty_chunks.assign((chunks + 63) / 64, 0);
  }
  tree_.assign(std::move(leaves));
  tree_init_ = true;
  layout_stale_ = false;
}

crypto::Digest RegisterFile::state_digest() const {
  if (!tree_init_ || layout_stale_) {
    rebuild_tree();
    PERA_OBS_COUNT("dataplane.digest.reg.full");
  } else {
    std::uint64_t dirty = 0;
    for (const Reg& reg : regs_) {
      for (std::size_t w = 0; w < reg.dirty_chunks.size(); ++w) {
        std::uint64_t word = reg.dirty_chunks[w];
        while (word != 0) {
          const unsigned bit =
              static_cast<unsigned>(__builtin_ctzll(word));
          word &= word - 1;
          const std::size_t chunk = w * 64 + bit;
          tree_.set_leaf(reg.leaf_base + 1 + chunk,
                         chunk_leaf(reg.values, chunk));
          ++dirty;
        }
        reg.dirty_chunks[w] = 0;
      }
    }
    PERA_OBS_COUNT("dataplane.digest.reg.incremental");
    if (dirty > 0) PERA_OBS_COUNT("dataplane.digest.reg.dirty_chunks", dirty);
  }
  const std::uint64_t before = tree_.stats().nodes_rehashed;
  const crypto::Digest root = tree_.root();
  PERA_OBS_COUNT("dataplane.digest.reg.nodes_rehashed",
                 tree_.stats().nodes_rehashed - before);
  return root;
}

}  // namespace pera::dataplane
