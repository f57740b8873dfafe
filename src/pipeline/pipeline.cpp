#include "pipeline/pipeline.h"

#include <algorithm>

#include "crypto/hmac.h"
#include "obs/obs.h"
#include "obs/recorder.h"
#include "pipeline/affinity.h"

namespace pera::pipeline {

namespace {

// Simulated dispatcher cost per packet (flow hash + ring push) — the
// serial fraction that Amdahl-limits shard scaling.
constexpr netsim::SimTime kDispatchCost = 25;

PipelineOptions clamped(PipelineOptions options) {
  if (options.shards == 0) options.shards = 1;
  if (options.appraisers == 0) options.appraisers = 1;
  return options;
}

AppraiserOptions appraiser_options(const PipelineOptions& options) {
  AppraiserOptions ao;
  ao.workers = options.appraisers;
  ao.mode = options.appraise_mode;
  ao.scheme = options.scheme;
  ao.xmss_height = options.xmss_height;
  ao.pin_base = options.pin_cores ? static_cast<int>(options.shards) : -1;
  return ao;
}

netsim::SimTime percentile(const std::vector<netsim::SimTime>& sorted,
                           double p) {
  if (sorted.empty()) return 0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const std::size_t idx = static_cast<std::size_t>(rank + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace

std::vector<crypto::Digest> PeraPipeline::shard_keys(
    const crypto::Digest& root_key, std::string_view label, std::size_t n) {
  return crypto::derive_keys(
      crypto::BytesView{root_key.v.data(), root_key.v.size()}, label, n);
}

PeraPipeline::PeraPipeline(std::string name, ProgramFactory factory,
                           const crypto::Digest& root_key,
                           PipelineOptions options)
    : name_(std::move(name)),
      options_(clamped(std::move(options))),
      appraiser_(root_key, options_.shard_key_label, options_.shards,
                 appraiser_options(options_)) {
  const std::vector<crypto::Digest> keys =
      shard_keys(root_key, options_.shard_key_label, options_.shards);
  workers_.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i) {
    workers_.push_back(std::make_unique<ShardWorker>(
        static_cast<std::uint32_t>(i), name_, factory, keys[i], epochs_,
        appraiser_, options_.pera, options_.queue_capacity, options_.scheme,
        options_.xmss_height));
    if (options_.pin_cores) {
      workers_.back()->set_pin_cpu(static_cast<int>(i));
    }
  }
}

PeraPipeline::~PeraPipeline() { stop(); }

void PeraPipeline::start() {
  if (started_) return;
  crypto::engine::publish_metrics();
  started_ = true;
  stop_.store(false, std::memory_order_release);
  appraiser_.start(workers_.size());
  threads_.reserve(workers_.size());
  for (auto& w : workers_) {
    threads_.emplace_back([worker = w.get(), this] { worker->run(stop_); });
  }
}

bool PeraPipeline::submit(const dataplane::RawPacket& raw,
                          const nac::PolicyHeader* header) {
  const obs::ScopedStage dispatching(obs::Stage::kDispatch);
  const std::uint64_t flow = flow_hash(extract_flow_key(raw));
  const std::size_t shard = shard_of_flow(flow, workers_.size());

  dispatch_clock_ += kDispatchCost;
  PacketJob job;
  // Allocation-free fast path: reuse the capacity of a buffer the target
  // shard already spent, instead of allocating a fresh copy.
  crypto::Bytes pooled;
  if (workers_[shard]->recycle().try_pop(pooled)) {
    pooled.assign(raw.data.begin(), raw.data.end());
    job.raw.port = raw.port;
    job.raw.data = std::move(pooled);
    ++pool_reused_;
  } else {
    job.raw = raw;
    ++pool_fresh_;
  }
  job.header = header;
  job.flow = flow;
  job.seq = next_seq_++;
  job.arrival = dispatch_clock_;

  // try_push moves from the job only on success, so a full ring leaves it
  // intact for the retry loop.
  SpscQueue<PacketJob>& q = workers_[shard]->queue();
  if (!q.try_push(std::move(job))) {
    if (options_.drop_on_full) {
      ++dropped_;
      PERA_OBS_COUNT("pipeline.drops");
      return false;
    }
    // Lossless backpressure: wait (with escalating backoff, so an
    // oversubscribed worker actually gets cycles) until a slot frees.
    const obs::ScopedStage blocked(obs::Stage::kRingTransit);
    Backoff full;
    while (!q.try_push(std::move(job))) full.wait();
  }
  if (obs::enabled()) {
    obs::gauge_set("pipeline.queue.depth.shard" + std::to_string(shard),
                   static_cast<std::int64_t>(q.size()));
  }
  return true;
}

void PeraPipeline::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  stop_.store(true, std::memory_order_release);
  // Defined drain order: (1) each worker empties its ring and flushes its
  // batcher on its own thread before run() returns (so streamed evidence
  // reaches the appraiser rings); (2) the appraiser drains, folds and
  // merges. drain_deferred() here is the idempotent fallback for the
  // inline path (it is empty after a threaded run).
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  for (auto& w : workers_) w->drain_deferred();
  appraiser_.finish();
}

void PeraPipeline::load_program(ProgramFactory factory) {
  ControlOp op;
  op.kind = ControlOp::Kind::kLoadProgram;
  op.factory = std::move(factory);
  epochs_.publish(std::move(op));
  PERA_OBS_COUNT("pipeline.control.program_swaps");
}

void PeraPipeline::update_table(std::string table,
                                dataplane::TableEntry entry) {
  ControlOp op;
  op.kind = ControlOp::Kind::kUpdateTable;
  op.table = std::move(table);
  op.entry = std::move(entry);
  epochs_.publish(std::move(op));
  PERA_OBS_COUNT("pipeline.control.table_updates");
}

PipelineReport PeraPipeline::report() const {
  PipelineReport rep;
  rep.submitted = next_seq_;
  rep.dropped = dropped_;
  rep.pool_reused = pool_reused_;
  rep.pool_fresh = pool_fresh_;
  rep.makespan = dispatch_clock_;
  std::vector<netsim::SimTime> latencies;
  for (const auto& w : workers_) {
    rep.shards.push_back(w->report());
    rep.makespan = std::max(rep.makespan, rep.shards.back().completion);
    latencies.insert(latencies.end(), w->latencies().begin(),
                     w->latencies().end());
  }
  std::sort(latencies.begin(), latencies.end());
  rep.latency_p50 = percentile(latencies, 0.50);
  rep.latency_p99 = percentile(latencies, 0.99);
  if (rep.makespan > 0) {
    rep.sim_packets_per_sec =
        static_cast<double>(rep.processed()) *
        static_cast<double>(netsim::kSecond) /
        static_cast<double>(rep.makespan);
  }
  return rep;
}

}  // namespace pera::pipeline
