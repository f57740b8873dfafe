#include "pipeline/appraiser.h"

#include <algorithm>
#include <array>
#include <string>

#include "copland/evidence.h"
#include "crypto/hmac.h"
#include "obs/obs.h"
#include "obs/profiler.h"
#include "pipeline/affinity.h"
#include "pipeline/pipeline.h"

namespace pera::pipeline {

namespace prof = obs::profiler;

namespace {

// Capacity of each (producer, worker) evidence ring.
constexpr std::size_t kRingCapacity = 4096;
// Max items popped per ring visit — the verification batch grain.
constexpr std::size_t kVerifyBurst = 16;

// Digest of the chain Evidence::extend builds from the decoded records'
// content, in order, computed from their bytes. extend drops a leading
// kEmpty accumulator (Empty + x = x), so the chain starts at the first
// content that is not kEmpty and every later content joins it; a left-deep
// Seq chain over m contents encodes as m-1 kSeq bytes followed by the m
// contents. No content left: the chain is Empty, which encodes as 0x00.
crypto::Digest chain_digest(const std::vector<AppraisedRecord>& records) {
  constexpr auto kEmptyByte =
      static_cast<std::uint8_t>(copland::EvidenceKind::kEmpty);
  std::size_t first = 0;
  std::size_t links = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (!records[i].decoded) continue;
    const crypto::Bytes& bytes = records[i].content.bytes;
    // A flow folds long after its records were appraised, so their bytes
    // are usually out of cache: start every line's load now, and the
    // hashing pass below runs on cached data.
    for (std::size_t line = 64; line < bytes.size(); line += 64) {
      __builtin_prefetch(bytes.data() + line);
    }
    if (links == 0 && bytes[0] == kEmptyByte) {
      first = i + 1;
      continue;
    }
    ++links;
  }
  if (links == 0) return crypto::sha256(crypto::BytesView{&kEmptyByte, 1});
  crypto::Sha256 h;
  std::array<std::uint8_t, 64> seq_bytes;
  seq_bytes.fill(static_cast<std::uint8_t>(copland::EvidenceKind::kSeq));
  for (std::size_t left = links - 1; left > 0;) {
    const std::size_t n = std::min(left, seq_bytes.size());
    h.update(crypto::BytesView{seq_bytes.data(), n});
    left -= n;
  }
  for (std::size_t i = first; i < records.size(); ++i) {
    if (records[i].decoded) h.update(records[i].content.view());
  }
  return h.finish();
}

}  // namespace

VerifierSet::VerifierSet(const crypto::Digest& root_key,
                         std::string_view label, std::size_t max_shards,
                         crypto::SignatureScheme scheme,
                         unsigned xmss_height) {
  const std::vector<crypto::Digest> keys =
      PeraPipeline::shard_keys(root_key, label, max_shards);
  verifiers_.reserve(keys.size());
  for (const crypto::Digest& k : keys) {
    if (scheme == crypto::SignatureScheme::kXmss) {
      // The appraiser re-derives the shard's XMSS keypair from the
      // shared derived seed to learn the public root (symmetric
      // provisioning, like the HMAC device keys), then keeps only the
      // public-root verifier.
      const crypto::XmssSigner provision(k, xmss_height);
      verifiers_.push_back(
          std::make_unique<crypto::XmssVerifier>(provision.public_root()));
    } else {
      verifiers_.push_back(std::make_unique<crypto::HmacVerifier>(k));
    }
    by_key_id_[verifiers_.back()->key_id()] = verifiers_.size() - 1;
  }
}

const crypto::Verifier* VerifierSet::by_key_id(
    const crypto::Digest& id) const {
  const auto it = by_key_id_.find(id);
  return it == by_key_id_.end() ? nullptr : verifiers_[it->second].get();
}

AppraisedRecord appraise_record(const EvidenceItem& item,
                                const VerifierSet& verifiers) {
  AppraisedRecord rec;
  rec.seq = item.seq;
  rec.shard = item.shard;
  copland::ScannedEvidence ev;
  try {
    ev = copland::scan(
        crypto::BytesView{item.evidence.data(), item.evidence.size()});
  } catch (const std::exception&) {
    return rec;  // decoded=false: counted as a failure by the fold
  }
  rec.decoded = true;
  rec.content.bytes.assign(ev.content.begin(), ev.content.end());
  rec.content_digest = crypto::sha256(ev.content);
  if (ev.is_signed) {
    if (const crypto::Verifier* v = verifiers.by_key_id(ev.sig.key_id)) {
      rec.sig_ok = crypto::verify_any(*v, rec.content_digest, ev.sig);
    }
  } else {
    rec.sig_ok = true;  // unsigned evidence: content-only appraisal
  }
  PERA_OBS_COUNT(rec.sig_ok ? "pipeline.appraise.sig_ok"
                            : "pipeline.appraise.sig_fail");
  return rec;
}

FlowVerdict fold_flow(std::uint64_t flow,
                      std::vector<AppraisedRecord>& records,
                      nac::CompositionMode mode) {
  // Restore per-flow order: the dispatcher's sequence numbers are
  // global, so they order a flow's records no matter which shard (or
  // how many shards) produced them. Stable, so the several records one
  // packet can emit keep their emission order. A flow never splits
  // across shards, so its records usually arrive in order already.
  const auto before = [](const AppraisedRecord& a, const AppraisedRecord& b) {
    if (a.seq != b.seq) return a.seq < b.seq;
    return a.shard < b.shard;
  };
  if (!std::is_sorted(records.begin(), records.end(), before)) {
    std::stable_sort(records.begin(), records.end(), before);
  }

  FlowVerdict verdict;
  verdict.flow = flow;
  verdict.records = records.size();
  verdict.ok = true;
  for (const AppraisedRecord& rec : records) {
    if (!rec.decoded || !rec.sig_ok) {
      verdict.ok = false;
      ++verdict.signature_failures;
    }
  }

  // Fold the signed content (shard-key independent) of every decoded
  // record into the flow transcript under the policy's composition mode.
  if (mode == nac::CompositionMode::kChained) {
    crypto::Sha256 h;
    h.update("pera.pipeline.chained");
    h.update(chain_digest(records));
    const std::uint8_t ok_byte = verdict.ok ? 1 : 0;
    h.update(crypto::BytesView{&ok_byte, 1});
    verdict.transcript = h.finish();
  } else {
    crypto::Sha256 pointwise;
    pointwise.update("pera.pipeline.pointwise");
    for (const AppraisedRecord& rec : records) {
      if (!rec.decoded) continue;
      pointwise.update(rec.content_digest);
      pointwise.update(crypto::BytesView{
          reinterpret_cast<const std::uint8_t*>(&rec.sig_ok), 1});
    }
    verdict.transcript = pointwise.finish();
  }
  PERA_OBS_EVENT(obs::SpanKind::kAppraise, "pipeline", 0,
                 verdict.ok ? 1 : 0);
  return verdict;
}

crypto::Digest summary_digest(
    const std::map<std::uint64_t, FlowVerdict>& verdicts) {
  crypto::Sha256 h;
  h.update("pera.pipeline.summary");
  for (const auto& [flow, v] : verdicts) {
    crypto::Bytes b;
    crypto::append_u64(b, flow);
    crypto::append_u64(b, v.records);
    crypto::append_u64(b, v.signature_failures);
    b.push_back(v.ok ? 1 : 0);
    h.update(crypto::BytesView{b.data(), b.size()});
    h.update(v.transcript);
  }
  return h.finish();
}

ParallelAppraiser::ParallelAppraiser(const crypto::Digest& root_key,
                                     std::string_view label,
                                     std::size_t max_shards,
                                     AppraiserOptions options)
    : options_(options),
      verifiers_(root_key, label, max_shards, options.scheme,
                 options.xmss_height) {
  if (options_.workers == 0) options_.workers = 1;
}

ParallelAppraiser::~ParallelAppraiser() { finish(); }

void ParallelAppraiser::start(std::size_t producers) {
  if (started_) return;
  started_ = true;
  producers_ = producers == 0 ? 1 : producers;
  done_.store(false, std::memory_order_release);
  rings_.reserve(producers_ * options_.workers);
  for (std::size_t i = 0; i < producers_ * options_.workers; ++i) {
    rings_.push_back(
        std::make_unique<SpscQueue<EvidenceItem>>(kRingCapacity));
  }
  states_.resize(options_.workers);
  threads_.reserve(options_.workers);
  for (std::size_t w = 0; w < options_.workers; ++w) {
    threads_.emplace_back([this, w] { run_worker(w); });
  }
}

bool ParallelAppraiser::accept(std::uint32_t producer, EvidenceItem&& item) {
  if (!started_ || producer >= producers_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    PERA_OBS_COUNT("pipeline.appraise.dropped");
    return false;
  }
  SpscQueue<EvidenceItem>& q = ring(producer, worker_of(item.flow));
  if (!q.try_push(std::move(item))) {
    if (done_.load(std::memory_order_acquire)) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      PERA_OBS_COUNT("pipeline.appraise.dropped");
      return false;
    }
    // Lossless: the appraiser is the pipeline's consumer of record —
    // spin with escalating backoff until the owning worker catches up.
    Backoff full;
    while (!q.try_push(std::move(item))) full.wait();
  }
  return true;
}

void ParallelAppraiser::run_worker(std::size_t w) {
  if (options_.pin_base >= 0) {
    pin_current_thread(static_cast<unsigned>(options_.pin_base) +
                       static_cast<unsigned>(w));
  }
  const prof::ScopedThread profile("appraiser" + std::to_string(w),
                                   prof::Stage::kIdle);
  WorkerState& state = states_[w];
  EvidenceItem item;
  // Pop one item from `q` and appraise it; false when `q` is empty.
  const auto appraise_one = [&](SpscQueue<EvidenceItem>& q) {
    if (!q.try_pop(item)) return false;
    prof::enter(prof::Stage::kWotsVerify);
    AppraisedRecord rec = appraise_record(item, verifiers_);
    prof::enter(prof::Stage::kReassembly);
    if (options_.record_hook) {
      options_.record_hook(item, std::move(rec));
    } else {
      state.flows[item.flow].push_back(std::move(rec));
    }
    ++state.records;
    return true;
  };
  Backoff idle;
  for (;;) {
    // Visit every producer's ring; pop in bursts so verification runs
    // as a batch per visit.
    std::size_t popped = 0;
    for (std::size_t p = 0; p < producers_; ++p) {
      for (std::size_t n = 0; n < kVerifyBurst && appraise_one(ring(p, w));
           ++n) {
        ++popped;
      }
    }
    if (popped != 0) {
      idle.reset();
      continue;
    }
    if (done_.load(std::memory_order_acquire)) {
      // done_ is set only after every producer thread was joined, so no
      // push can race this final drain: empty one last full pass and
      // the rings stay empty forever.
      for (std::size_t p = 0; p < producers_; ++p) {
        while (appraise_one(ring(p, w))) {
        }
      }
      break;
    }
    prof::enter(prof::Stage::kIdle);
    idle.wait();
  }
  prof::enter(prof::Stage::kReassembly);
  for (auto& [flow, records] : state.flows) {
    state.verdicts[flow] = fold_flow(flow, records, options_.mode);
  }
  state.flows.clear();
}

void ParallelAppraiser::finish() {
  if (!started_ || finished_) return;
  finished_ = true;
  done_.store(true, std::memory_order_release);
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  // Deterministic merge: flow slices are disjoint across workers, and
  // std::map orders by flow id — the merged map is independent of worker
  // count and thread timing.
  const prof::ScopedStage merge(prof::Stage::kMerge);
  for (WorkerState& state : states_) {
    records_ += state.records;
    verdicts_.merge(state.verdicts);
  }
  PERA_OBS_COUNT("pipeline.appraise.flows", verdicts_.size());
}

}  // namespace pera::pipeline
