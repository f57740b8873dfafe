#include "pera/engine.h"

#include "obs/obs.h"

namespace pera::pera {

using copland::Evidence;
using copland::EvidencePtr;

namespace {
constexpr nac::EvidenceDetail kLevels[] = {
    nac::EvidenceDetail::kHardware, nac::EvidenceDetail::kProgram,
    nac::EvidenceDetail::kTables, nac::EvidenceDetail::kProgState,
    nac::EvidenceDetail::kPacket};
}

netsim::SimTime EvidenceEngine::sign_cost() const {
  return signer_->scheme() == crypto::SignatureScheme::kXmss
             ? costs_.sign_cost_xmss
             : costs_.sign_cost_hmac;
}

EngineResult EvidenceEngine::create(const nac::HopInstruction& inst,
                                    const crypto::Nonce& nonce,
                                    const crypto::Bytes* packet_bytes,
                                    const GuardTest* guard) {
  EngineResult res;
  obs::ScopedSpan span(obs::SpanKind::kEvidenceCreate, place_);

  if (!inst.guard.empty()) {
    // "Fail early and avoid the attestation effort" (§5.1).
    const bool pass = guard == nullptr || (*guard)(inst.guard);
    if (!pass) {
      res.evidence = Evidence::empty();
      res.guard_failed = true;
      res.cost = costs_.cache_lookup_cost;  // a test is about as cheap
      PERA_OBS_COUNT("pera.engine.guard_failures");
      span.set_cost(res.cost);
      return res;
    }
  }

  const nac::DetailMask detail =
      inst.detail == 0
          ? nac::mask_of(nac::EvidenceDetail::kProgram)
          : inst.detail;

  // Instruction variant key: same detail with different hash/sign flags or
  // custom targets must not share cache slots. The flags are the key
  // as they are; only custom targets need hashing.
  const std::uint8_t fl = static_cast<std::uint8_t>(
      (inst.hash_evidence ? 1 : 0) | (inst.sign_evidence ? 2 : 0));
  crypto::Digest variant{};
  variant.v[0] = fl;
  if (!inst.custom_targets.empty()) {
    crypto::Sha256 variant_h;
    variant_h.update("pera.engine.variant");
    variant_h.update(crypto::BytesView{&fl, 1});
    for (const auto& t : inst.custom_targets) variant_h.update(t);
    variant = variant_h.finish();
  }

  // Cache covers everything but packet-level freshness.
  res.cost += costs_.cache_lookup_cost;
  if (auto cached = cache_->lookup(detail, nonce, *mu_, variant)) {
    res.evidence = std::move(cached->evidence);
    res.encoded = std::move(cached->encoded);
    res.from_cache = true;
    span.set_cost(res.cost);
    span.set_value(1);  // served from cache
    return res;
  }

  EvidencePtr acc = Evidence::empty();
  if (!nonce.value.is_zero()) {
    acc = Evidence::extend(acc, Evidence::nonce_ev(nonce));
  }
  for (nac::EvidenceDetail level : kLevels) {
    if (!nac::has_detail(detail, level)) continue;
    const crypto::Digest value = mu_->measure(level, packet_bytes);
    acc = Evidence::extend(
        acc, Evidence::measurement(place_, place_, nac::to_string(level),
                                   value, mu_->claim_text(level)));
    res.cost += costs_.measure_cost;
  }
  for (const std::string& target : inst.custom_targets) {
    // Custom properties are folded in as named measurements of the
    // program configuration.
    const crypto::Digest value =
        mu_->measure(nac::EvidenceDetail::kProgram, nullptr);
    acc = Evidence::extend(
        acc, Evidence::measurement(place_, place_, target, value,
                                   "property " + target));
    res.cost += costs_.measure_cost;
  }

  // `encoded` tracks encode(acc): each digest below is taken over it, and
  // the signed term's encoding is built from it.
  crypto::Bytes encoded = copland::encode(acc);
  if (inst.hash_evidence) {
    const std::size_t sz = encoded.size();
    acc = Evidence::hashed(place_, crypto::sha256(encoded));
    encoded = copland::encode(acc);
    res.cost += costs_.hash_cost_per_kb *
                static_cast<netsim::SimTime>(sz / 1024 + 1);
    PERA_OBS_COUNT("pera.engine.hashes");
  }
  if (inst.sign_evidence) {
    crypto::Signature sig = signer_->sign(crypto::sha256(encoded));
    encoded = copland::encode_signature(place_, sig, encoded);
    acc = Evidence::signature(place_, acc, std::move(sig));
    res.cost += sign_cost();
    PERA_OBS_COUNT("pera.sign.count");
    PERA_OBS_OBSERVE("pera.sign.sim_ns", sign_cost());
    PERA_OBS_EVENT(obs::SpanKind::kSign, place_, sign_cost());
  }

  res.encoded = std::make_shared<const crypto::Bytes>(std::move(encoded));
  cache_->store(detail, nonce, {acc, res.encoded}, *mu_, variant);
  res.evidence = std::move(acc);
  span.set_cost(res.cost);
  return res;
}

EngineResult EvidenceEngine::compose(const EvidencePtr& prior,
                                     const EvidencePtr& fresh,
                                     nac::CompositionMode mode) const {
  EngineResult res;
  res.cost = costs_.compose_cost;
  PERA_OBS_EVENT(obs::SpanKind::kEvidenceCompose, place_, res.cost,
                 mode == nac::CompositionMode::kChained ? 1 : 0);
  if (!prior || prior->kind == copland::EvidenceKind::kEmpty) {
    res.evidence = fresh;
    return res;
  }
  if (mode == nac::CompositionMode::kChained) {
    res.evidence = Evidence::seq(prior, fresh);
  } else {
    res.evidence = Evidence::par(prior, fresh);
  }
  return res;
}

}  // namespace pera::pera
