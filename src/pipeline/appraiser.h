// Appraisal of shard-interleaved evidence streams (§5.2, Fig. 4).
//
// Shards emit evidence records in their own local order, so what reaches
// the appraiser is an interleaving across flows. Appraisal verifies each
// record's signature against the per-shard device keys (derived from the
// same root the pipeline used), buckets records per flow, restores
// per-flow order by dispatcher sequence number, and folds the per-flow
// composition — chained (Seq) or pointwise.
//
// Appraisal works on the canonical bytes as they arrive and never builds
// an evidence tree. A signature node encodes its child last, so the
// signed content is a suffix slice of the record: copland::scan()
// validates the record (accepting exactly what copland::decode accepts),
// and the signature is checked over sha256(slice). The chained fold
// hashes the slices in order behind the kSeq bytes of the chain
// Evidence::extend would build, which is that chain's encoding, so the
// transcript equals the one a tree fold gives (tests/evidence_oracle.h
// keeps the tree fold as the reference).
//
// The per-record work (appraise_record) and the per-flow fold
// (fold_flow) are free functions, run by ParallelAppraiser.
// It splits appraisal the way Petz & Alexander layer attestation
// managers: N independent appraiser workers each own a disjoint slice of
// the flow space (the same multiplicative hash-partition the dispatcher
// uses for shards), verify evidence concurrently with the pipeline run,
// and compose their per-flow verdicts through a deterministic merge.
// Flow slices are disjoint and std::map orders by flow id, so the merged
// verdict map and summary digest are independent of both shard count
// and appraiser count.
//
// The per-flow transcript digest deliberately covers only the *signed
// content* (the evidence under the signature node) plus the verification
// outcome, not the signature bytes: shard keys differ by shard, so the
// same flow processed by shard 0 (at 1 shard) or shard 3 (at 4 shards)
// yields different signatures over bit-identical content. That is what
// makes verdicts shard-count invariant — the property the determinism
// tests pin down.
//
// Wiring: one SPSC ring per (producer shard, appraiser worker) pair —
// the producing shard thread is the only pusher and the owning appraiser
// the only popper, so the evidence hand-off takes zero locks, like the
// packet rings. Workers pop in bursts so signature verification runs in
// batches (with the XMSS scheme each verification's WOTS chain walk
// rides the multi-lane SHA-256 engine).
//
// Shutdown (the defined drain order, see PeraPipeline::stop()):
//   1. shard rings drain, shard batchers flush — on the shard threads;
//   2. finish() marks producers done; appraiser workers drain their
//      rings dry, fold their flows, and exit;
//   3. the caller's thread merges the disjoint verdict maps.
// Verdicts for evidence deferred to the very last batch therefore can
// never be dropped, at any batch size or packet count.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "copland/evidence.h"
#include "crypto/signer.h"
#include "nac/binder.h"
#include "pipeline/worker.h"

namespace pera::pipeline {

struct FlowVerdict {
  std::uint64_t flow = 0;
  std::size_t records = 0;
  std::size_t signature_failures = 0;
  bool ok = false;               // all records present-and-verified
  crypto::Digest transcript{};   // composition-mode-sensitive fold
};

/// The per-shard verifiers an appraiser provisions from the shared root
/// key: one per derived device key, resolved by key id (the appraiser
/// does not know the attester's shard count). Supports the symmetric
/// HmacSigner scheme and the hash-based XmssSigner scheme (whose WOTS
/// chain walk rides the multi-lane SHA-256 engine).
class VerifierSet {
 public:
  VerifierSet(const crypto::Digest& root_key, std::string_view label,
              std::size_t max_shards,
              crypto::SignatureScheme scheme =
                  crypto::SignatureScheme::kHmacDeviceKey,
              unsigned xmss_height = 8);

  /// nullptr when no provisioned key matches.
  [[nodiscard]] const crypto::Verifier* by_key_id(
      const crypto::Digest& id) const;

  [[nodiscard]] std::size_t size() const { return verifiers_.size(); }

 private:
  std::vector<std::unique_ptr<crypto::Verifier>> verifiers_;
  std::map<crypto::Digest, std::size_t> by_key_id_;
};

/// One evidence record after signature verification, ready for the
/// per-flow fold. `content` is the canonical encoding of the evidence
/// under the signature node (or of the whole term for unsigned records),
/// and `content_digest` its SHA-256 — the message the signature covers.
/// Both are empty when the record did not decode.
struct AppraisedRecord {
  std::uint64_t seq = 0;
  std::uint32_t shard = 0;
  bool decoded = false;
  bool sig_ok = false;
  copland::EncodedEvidence content;
  crypto::Digest content_digest{};
};

/// Scan + verify one evidence item (the parallelizable per-record
/// work). Counts pipeline.appraise.sig_ok/.sig_fail.
[[nodiscard]] AppraisedRecord appraise_record(const EvidenceItem& item,
                                              const VerifierSet& verifiers);

/// Order `records` by (seq, shard) — stable, so same-packet records keep
/// their emission order — and fold them into the flow verdict under
/// `mode`. Consumes the record order in place.
[[nodiscard]] FlowVerdict fold_flow(std::uint64_t flow,
                                    std::vector<AppraisedRecord>& records,
                                    nac::CompositionMode mode);

/// Digest over all flow verdicts — one value to compare across shard
/// and appraiser counts (the determinism tests' fixed point).
[[nodiscard]] crypto::Digest summary_digest(
    const std::map<std::uint64_t, FlowVerdict>& verdicts);

struct AppraiserOptions {
  std::size_t workers = 1;
  nac::CompositionMode mode = nac::CompositionMode::kChained;
  crypto::SignatureScheme scheme = crypto::SignatureScheme::kHmacDeviceKey;
  unsigned xmss_height = 8;
  /// Pin worker i to core pin_base + i (affinity.h); < 0 = no pinning.
  int pin_base = -1;
  /// Streaming mode: when set, each appraised record is handed to this
  /// hook on the worker thread instead of being bucketed for the
  /// per-flow fold. This is the long-running-server path — verdicts go
  /// out per round, so per-flow state must not accumulate and finish()
  /// yields an empty verdict map. The hook may be called concurrently
  /// from different workers (never twice concurrently for one flow).
  std::function<void(const EvidenceItem&, AppraisedRecord&&)> record_hook;
};

class ParallelAppraiser final : public EvidenceSink {
 public:
  /// Provision verifiers for up to `max_shards` derived device keys
  /// (see VerifierSet).
  ParallelAppraiser(const crypto::Digest& root_key, std::string_view label,
                    std::size_t max_shards, AppraiserOptions options = {});
  ~ParallelAppraiser() override;

  ParallelAppraiser(const ParallelAppraiser&) = delete;
  ParallelAppraiser& operator=(const ParallelAppraiser&) = delete;

  /// Spawn the appraiser workers, wired for `producers` producing
  /// shards. Idempotent.
  void start(std::size_t producers);

  /// EvidenceSink: called from producer shard threads. Lossless — spins
  /// with backoff while the owning worker's ring is full. Returns false
  /// only after finish() (late evidence is dropped and counted).
  bool accept(std::uint32_t producer, EvidenceItem&& item) override;

  /// Drain, fold, join, merge. Call after every producer stopped
  /// emitting (PeraPipeline::stop() returned). Idempotent.
  void finish();

  // --- results (valid after finish()) -------------------------------------
  [[nodiscard]] const std::map<std::uint64_t, FlowVerdict>& verdicts() const {
    return verdicts_;
  }
  [[nodiscard]] crypto::Digest summary() const {
    return summary_digest(verdicts_);
  }
  [[nodiscard]] std::size_t flows() const { return verdicts_.size(); }
  [[nodiscard]] std::uint64_t records() const { return records_; }
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t workers() const { return options_.workers; }

  /// Appraiser worker a flow lands on (exposed for tests).
  [[nodiscard]] std::size_t worker_of(std::uint64_t flow) const {
    return static_cast<std::size_t>(
        (static_cast<unsigned __int128>(flow) * options_.workers) >> 64);
  }

 private:
  struct WorkerState {
    // Flow buckets: verified records awaiting the per-flow fold.
    std::map<std::uint64_t, std::vector<AppraisedRecord>> flows;
    std::map<std::uint64_t, FlowVerdict> verdicts;
    std::uint64_t records = 0;
  };

  void run_worker(std::size_t w);
  [[nodiscard]] SpscQueue<EvidenceItem>& ring(std::size_t producer,
                                              std::size_t worker) {
    return *rings_[producer * options_.workers + worker];
  }

  AppraiserOptions options_;
  VerifierSet verifiers_;
  std::size_t producers_ = 0;
  // [producer][worker], flattened; unique_ptr keeps SpscQueue immovable.
  std::vector<std::unique_ptr<SpscQueue<EvidenceItem>>> rings_;
  std::vector<WorkerState> states_;
  std::vector<std::thread> threads_;
  std::atomic<bool> done_{false};
  std::atomic<std::uint64_t> dropped_{0};
  bool started_ = false;
  bool finished_ = false;

  std::map<std::uint64_t, FlowVerdict> verdicts_;
  std::uint64_t records_ = 0;
};

}  // namespace pera::pipeline
