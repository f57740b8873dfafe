#include "pera/batcher.h"

#include <stdexcept>

#include "obs/obs.h"

namespace pera::pera {

EvidenceBatcher::EvidenceBatcher(crypto::Signer& signer,
                                 std::size_t batch_size)
    : signer_(&signer), batch_size_(batch_size) {
  if (batch_size == 0) {
    throw std::invalid_argument("EvidenceBatcher: batch_size must be >= 1");
  }
  // Every batch flush runs Merkle + WOTS on the hash engine; record which
  // backend this process resolved so throughput numbers are attributable.
  crypto::engine::publish_metrics();
}

std::optional<std::vector<BatchedSignature>> EvidenceBatcher::add(
    const crypto::Digest& item) {
  pending_.push_back(item);
  if (pending_.size() < batch_size_) return std::nullopt;
  return flush();
}

std::vector<BatchedSignature> EvidenceBatcher::flush() {
  if (pending_.empty()) return {};
  crypto::MerkleTree tree(std::move(pending_));
  pending_.clear();
  const crypto::Digest root = tree.root();
  const crypto::Signature root_sig = signer_->sign(root);
  std::vector<BatchedSignature> receipts;
  receipts.reserve(tree.leaf_count());
  for (std::size_t i = 0; i < tree.leaf_count(); ++i) {
    receipts.push_back(BatchedSignature{root, root_sig, tree.prove(i)});
  }
  ++batches_;
  PERA_OBS_COUNT("pera.batcher.batches");
  PERA_OBS_COUNT("pera.batcher.items", receipts.size());
  PERA_OBS_EVENT(obs::SpanKind::kSign, "pera.batcher", 0, receipts.size());
  return receipts;
}

std::vector<crypto::Signature> EvidenceBatcher::flush_wrapped() {
  const std::vector<BatchedSignature> receipts = flush();
  std::vector<crypto::Signature> out;
  out.reserve(receipts.size());
  for (const auto& r : receipts) {
    out.push_back(crypto::wrap_batched(r.root, r.proof, r.root_sig));
  }
  return out;
}

bool EvidenceBatcher::verify(const crypto::Verifier& verifier,
                             const crypto::Digest& item,
                             const BatchedSignature& sig) {
  if (!crypto::MerkleTree::verify(sig.root, item, sig.proof)) return false;
  return verifier.verify(sig.root, sig.root_sig);
}

}  // namespace pera::pera
