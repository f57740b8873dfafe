// End-to-end tests for Merkle-batched signing on the data path: the PERA
// switch defers out-of-band signatures, ships whole batches, and the
// standard appraiser verifies the kBatched scheme via crypto::verify_any.
#include <gtest/gtest.h>

#include "core/deployment.h"
#include "merkle_oracle.h"

namespace pera::core {
namespace {

nac::CompiledPolicy oob_policy() {
  return nac::compile(std::string(
      "*rp<n> : forall hop : @hop [attest(Program) -> !] *=> "
      "@Appraiser [appraise]"));
}

TEST(BatchedFlow, WrappedSignaturesVerify) {
  crypto::KeyStore keys(71);
  crypto::Signer& s = keys.provision_hmac("sw");
  const crypto::Verifier& v = *keys.verifier_for("sw");
  ::pera::pera::EvidenceBatcher batcher(s, 4);
  std::vector<crypto::Digest> items;
  for (int i = 0; i < 3; ++i) {
    items.push_back(crypto::sha256("item" + std::to_string(i)));
    (void)batcher.add(items.back());
  }
  items.push_back(crypto::sha256("item3"));
  (void)batcher.add(items.back());
  // Fresh batch -> flush_wrapped on empty is empty; use a new batch.
  ::pera::pera::EvidenceBatcher b2(s, 64);
  for (const auto& i : items) (void)b2.add(i);
  const auto wrapped = b2.flush_wrapped();
  ASSERT_EQ(wrapped.size(), 4u);
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(wrapped[i].scheme, crypto::SignatureScheme::kBatched);
    EXPECT_TRUE(crypto::verify_any(v, items[i], wrapped[i]));
    EXPECT_FALSE(crypto::verify_any(v, crypto::sha256("other"), wrapped[i]));
  }
}

// Golden bytes: the wrapped receipts (root, Merkle proof with its
// zero-digest promotion markers, root signature) for a fixed key and fixed
// items. The hashes pin the kBatched wire format across tree rewrites.
TEST(BatchedFlow, GoldenReceiptBytes) {
  crypto::HmacSigner signer(crypto::sha256("pera.golden.batcher"));
  std::vector<std::string> got;
  for (const std::size_t n : {1u, 3u, 8u}) {
    ::pera::pera::EvidenceBatcher batcher(signer, 64);
    for (std::size_t i = 0; i < n; ++i) {
      (void)batcher.add(crypto::sha256("golden.item." + std::to_string(i)));
    }
    crypto::Sha256 h;
    for (const crypto::Signature& s : batcher.flush_wrapped()) {
      const crypto::Bytes ser = s.serialize();
      h.update(crypto::BytesView{ser.data(), ser.size()});
    }
    got.push_back(h.finish().hex());
  }
  EXPECT_EQ(got, (std::vector<std::string>{
      "caf3f04b70479a90927e676042c21d231db57b3f96c494a2f71be5c769a4ba64",
      "f4fffb071f9d3837df33ac40e4b1df9577ea67018d2e6263f3ffab80c59d5840",
      "c4182fc7e205fd9bbc5702d11a949e4d901ac37da340a1aa957052928967db01"}));
}

TEST(BatchedFlow, EndToEndAppraisalSucceeds) {
  DeploymentOptions opts;
  opts.pera_config.oob_batch_size = 4;
  Deployment dep(netsim::topo::chain(1), opts);
  dep.provision_goldens();

  // 16 packets out-of-band: evidence ships in 4 batches of 4, and every
  // record appraises clean through the normal appraiser path.
  const FlowReport rep = dep.send_flow("client", "server", oob_policy(), 16,
                                       /*in_band=*/false);
  EXPECT_EQ(rep.packets_delivered, 16u);
  EXPECT_EQ(rep.attestations, 16u);
  EXPECT_EQ(rep.appraisal_failures, 0u);
  EXPECT_EQ(rep.certificates, 16u);  // every record still appraised
}

TEST(BatchedFlow, PartialBatchStaysPending) {
  DeploymentOptions opts;
  opts.pera_config.oob_batch_size = 8;
  Deployment dep(netsim::topo::chain(1), opts);
  dep.provision_goldens();

  // 6 packets < batch of 8: nothing ships yet.
  const FlowReport rep = dep.send_flow("client", "server", oob_policy(), 6,
                                       /*in_band=*/false);
  EXPECT_EQ(rep.attestations, 6u);
  EXPECT_EQ(rep.certificates, 0u);

  // Two more packets complete the batch; all 8 records arrive.
  const FlowReport rep2 = dep.send_flow("client", "server", oob_policy(), 2,
                                        /*in_band=*/false);
  EXPECT_EQ(rep2.certificates, 8u);
  EXPECT_EQ(rep2.appraisal_failures, 0u);
}

TEST(BatchedFlow, UnbatchedAndBatchedSignatureCountsDiffer) {
  // With batch 8, XMSS one-time keys stretch 8x further.
  DeploymentOptions batched;
  batched.use_xmss = true;
  batched.xmss_height = 4;  // only 16 signatures
  batched.pera_config.oob_batch_size = 8;
  Deployment dep(netsim::topo::chain(1), batched);
  dep.provision_goldens();
  const FlowReport rep = dep.send_flow("client", "server", oob_policy(), 64,
                                       /*in_band=*/false);
  // 64 evidence records cost only 8 XMSS signatures: no exhaustion.
  EXPECT_EQ(rep.appraisal_failures, 0u);
  EXPECT_EQ(rep.certificates, 64u);
}

TEST(BatchedFlow, TamperedBatchedEvidenceDetected) {
  DeploymentOptions opts;
  opts.pera_config.oob_batch_size = 2;
  Deployment dep(netsim::topo::chain(1), opts);
  dep.provision_goldens();
  // Swap the program: batched evidence carries the rogue digest and every
  // record fails appraisal despite the valid batched signature.
  dep.switch_node("s1").pera().load_program(
      dataplane::make_rogue_router("v1"));
  const FlowReport rep = dep.send_flow("client", "server", oob_policy(), 4,
                                       /*in_band=*/false);
  EXPECT_EQ(rep.appraisal_failures, 4u);
}

TEST(BatchedFlow, NestedBatchedSignatureRejected) {
  // verify_any must refuse kBatched-inside-kBatched (no recursion bombs).
  crypto::KeyStore keys(72);
  crypto::Signer& s = keys.provision_hmac("sw");
  const crypto::Verifier& v = *keys.verifier_for("sw");
  const crypto::Digest msg = crypto::sha256("m");
  const crypto::Signature inner = s.sign(msg);
  const crypto::oracle::MerkleReference tree({msg});
  const crypto::Signature once =
      crypto::wrap_batched(tree.root(), tree.prove(0), inner);
  EXPECT_TRUE(crypto::verify_any(v, msg, once));
  const crypto::Signature twice =
      crypto::wrap_batched(tree.root(), tree.prove(0), once);
  EXPECT_FALSE(crypto::verify_any(v, msg, twice));
}

}  // namespace
}  // namespace pera::core
