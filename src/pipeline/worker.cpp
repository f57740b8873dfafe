#include "pipeline/worker.h"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "obs/obs.h"
#include "obs/recorder.h"
#include "pipeline/affinity.h"

namespace pera::pipeline {

namespace {

// Simulated parse/match/deparse cost per packet on a shard, on top of the
// RA cost the evidence engine reports.
constexpr netsim::SimTime kBasePacketCost = 120;

std::unique_ptr<crypto::Signer> make_signer(const crypto::Digest& device_key,
                                            crypto::SignatureScheme scheme,
                                            unsigned xmss_height) {
  if (scheme == crypto::SignatureScheme::kXmss) {
    return std::make_unique<crypto::XmssSigner>(device_key, xmss_height);
  }
  return std::make_unique<crypto::HmacSigner>(device_key);
}

}  // namespace

ShardWorker::ShardWorker(std::uint32_t id, std::string place,
                         const ProgramFactory& factory,
                         const crypto::Digest& device_key,
                         const EpochBlock& epochs, EvidenceSink& sink,
                         pera::PeraConfig config, std::size_t queue_capacity,
                         crypto::SignatureScheme scheme, unsigned xmss_height)
    : id_(id),
      signer_(make_signer(device_key, scheme, xmss_height)),
      switch_(std::move(place), factory(), *signer_, config),
      epochs_(&epochs),
      queue_(queue_capacity),
      recycle_(queue_capacity),
      sink_(sink) {}

void ShardWorker::run(const std::atomic<bool>& stop) {
  crypto::engine::publish_metrics();
  if (pin_cpu_ >= 0) pin_current_thread(static_cast<unsigned>(pin_cpu_));
  const obs::ScopedThread profile("shard" + std::to_string(id_),
                                  obs::Stage::kIdle);
  PacketJob job;
  Backoff idle;
  for (;;) {
    if (queue_.try_pop(job)) {
      idle.reset();
      obs::enter_stage(obs::Stage::kShardWork);
      process(std::move(job));
      continue;
    }
    if (stop.load(std::memory_order_acquire) && queue_.empty()) break;
    obs::enter_stage(obs::Stage::kIdle);
    idle.wait();
  }
  // Defined drain order, step 2 (after the ring is dry): flush the
  // batcher's deferred evidence on this thread, so the final batch
  // reaches the appraiser before finish().
  obs::enter_stage(obs::Stage::kShardWork);
  drain_deferred();
}

void ShardWorker::sync_epoch() {
  std::vector<ControlOp> ops;
  const std::uint64_t v = epochs_->ops_since(applied_ops_, ops);
  for (const ControlOp& op : ops) {
    // A malformed program or entry is refused here, on the shard thread,
    // and leaves the switch as it was.
    try {
      if (op.kind == ControlOp::Kind::kLoadProgram) {
        switch_.load_program(op.factory());
      } else {
        switch_.update_table(op.table, op.entry);
      }
    } catch (const std::invalid_argument&) {
      ++report_.rejected_ops;
      PERA_OBS_COUNT("pipeline.control.rejected");
    }
    ++applied_ops_;
  }
  synced_version_ = v;
  ++report_.epoch_syncs;
  PERA_OBS_COUNT("pipeline.epoch.syncs");
}

void ShardWorker::emit(EvidenceItem&& item) {
  const obs::ScopedStage transit(obs::Stage::kRingTransit);
  (void)sink_.accept(id_, std::move(item));
}

void ShardWorker::process(PacketJob job) {
  // Seqlock fast path: one acquire load; an odd (mid-publish) or moved
  // version sends us to the mutex-protected resync.
  if (epochs_->version() != synced_version_) sync_epoch();

  const std::uint64_t attested_before = switch_.ra_stats().attestations;
  nac::EvidenceCarrier carrier;
  ::pera::pera::PeraResult res =
      switch_.process(job.raw, job.header, &carrier);

  // Simulated-time accounting: the shard is a serial pipe; a packet
  // starts when both it and the pipe are ready.
  const netsim::SimTime cost = kBasePacketCost + res.ra_latency;
  const netsim::SimTime start = std::max(clock_, job.arrival);
  clock_ = start + cost;
  report_.busy += cost;
  report_.completion = clock_;
  latencies_.push_back(clock_ - job.arrival);

  ++report_.processed;
  if (res.forwarded.has_value()) ++report_.forwarded;
  if (res.attested) ++report_.attested;
  PERA_OBS_COUNT("pipeline.shard.packets." + std::to_string(id_));

  // The packet's payload buffer is spent: hand its capacity back to the
  // dispatcher through the recycle ring (full ring = let it free).
  if (job.raw.data.capacity() > 0) {
    (void)recycle_.try_push(std::move(job.raw.data));
  }

  // In-band evidence surfaces on the carrier immediately. The carrier is
  // packet-local, so its record buffers move out instead of copying.
  for (nac::EvidenceRecord& rec : carrier.records) {
    emit(EvidenceItem{job.flow, job.seq, id_, std::move(rec.evidence),
                      job.header->nonce});
  }
  // Every remaining attestation went out of band and will surface as
  // exactly one record — now, or later when the batcher flushes. Tag them
  // (flow, seq) in FIFO order, which the batcher preserves. (With a
  // batcher configured, signed OOB evidence is uniformly batched, so
  // immediate and deferred records never interleave across packets.)
  const std::uint64_t delta =
      switch_.ra_stats().attestations - attested_before;
  const std::uint64_t oob = delta - carrier.records.size();
  for (std::uint64_t k = 0; k < oob; ++k) {
    deferred_.emplace_back(job.flow, job.seq);
  }
  for (::pera::pera::OutOfBandEvidence& oob_ev : res.out_of_band) {
    const auto [flow, seq] = deferred_.front();
    deferred_.pop_front();
    emit(EvidenceItem{flow, seq, id_, std::move(oob_ev.evidence),
                      oob_ev.nonce});
  }
}

void ShardWorker::drain_deferred() {
  for (::pera::pera::OutOfBandEvidence& oob : switch_.flush_pending()) {
    const auto [flow, seq] = deferred_.front();
    deferred_.pop_front();
    emit(EvidenceItem{flow, seq, id_, std::move(oob.evidence), oob.nonce});
  }
}

ShardReport ShardWorker::report() const {
  ShardReport r = report_;
  r.cache = switch_.cache().stats();
  r.pipeline_faults = switch_.dataplane().stats().pipeline_faults;
  return r;
}

}  // namespace pera::pipeline
