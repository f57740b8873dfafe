// Reference appraisal for pipeline::appraise_record and fold_flow, for
// differential tests: the tree-based form. Each record is decoded into a
// copland::Evidence tree, its signature is checked over the digest of the
// re-encoded child, and a chained fold builds the left-deep Seq chain with
// Evidence::extend and digests it. The pipeline works on the bytes and
// must give the same per-record outcomes and the same FlowVerdicts.
//
// The chained fold recurses once per record when it encodes and frees
// the chain, so keep flows short here (a few thousand records).
#pragma once

#include <algorithm>
#include <cstdint>
#include <exception>
#include <vector>

#include "copland/evidence.h"
#include "crypto/signer.h"
#include "pipeline/appraiser.h"

namespace pera::pipeline::oracle {

/// AppraisedRecord with the signed content as a decoded tree (null when
/// the record did not decode).
struct TreeRecord {
  std::uint64_t seq = 0;
  std::uint32_t shard = 0;
  bool decoded = false;
  bool sig_ok = false;
  copland::EvidencePtr content;
};

inline TreeRecord appraise_record(const EvidenceItem& item,
                                  const VerifierSet& verifiers) {
  TreeRecord rec;
  rec.seq = item.seq;
  rec.shard = item.shard;
  try {
    const copland::EvidencePtr ev = copland::decode(
        crypto::BytesView{item.evidence.data(), item.evidence.size()});
    rec.decoded = true;
    if (ev->kind == copland::EvidenceKind::kSignature && ev->child != nullptr) {
      if (const crypto::Verifier* v = verifiers.by_key_id(ev->sig.key_id)) {
        rec.sig_ok =
            crypto::verify_any(*v, copland::digest(ev->child), ev->sig);
      }
      rec.content = ev->child;
    } else {
      rec.content = ev;  // unsigned evidence: content-only appraisal
      rec.sig_ok = true;
    }
  } catch (const std::exception&) {
    // decoded stays false
  }
  return rec;
}

inline FlowVerdict fold_flow(std::uint64_t flow,
                             std::vector<TreeRecord>& records,
                             nac::CompositionMode mode) {
  std::stable_sort(records.begin(), records.end(),
                   [](const TreeRecord& a, const TreeRecord& b) {
                     if (a.seq != b.seq) return a.seq < b.seq;
                     return a.shard < b.shard;
                   });

  FlowVerdict verdict;
  verdict.flow = flow;
  verdict.records = records.size();
  verdict.ok = true;

  copland::EvidencePtr chain = copland::Evidence::empty();
  crypto::Sha256 pointwise;
  pointwise.update("pera.pipeline.pointwise");

  for (const TreeRecord& rec : records) {
    if (!rec.decoded) {
      verdict.ok = false;
      ++verdict.signature_failures;
      continue;
    }
    if (!rec.sig_ok) {
      verdict.ok = false;
      ++verdict.signature_failures;
    }
    if (mode == nac::CompositionMode::kChained) {
      chain = copland::Evidence::extend(chain, rec.content);
    } else {
      pointwise.update(copland::digest(rec.content));
      pointwise.update(crypto::BytesView{
          reinterpret_cast<const std::uint8_t*>(&rec.sig_ok), 1});
    }
  }

  if (mode == nac::CompositionMode::kChained) {
    crypto::Sha256 h;
    h.update("pera.pipeline.chained");
    h.update(copland::digest(chain));
    const std::uint8_t ok_byte = verdict.ok ? 1 : 0;
    h.update(crypto::BytesView{&ok_byte, 1});
    verdict.transcript = h.finish();
  } else {
    verdict.transcript = pointwise.finish();
  }
  return verdict;
}

}  // namespace pera::pipeline::oracle
