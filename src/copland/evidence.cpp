#include "copland/evidence.h"

#include <algorithm>
#include <stdexcept>

namespace pera::copland {

using crypto::Bytes;
using crypto::BytesView;
using crypto::Digest;

namespace {
std::shared_ptr<Evidence> make(EvidenceKind k) {
  auto e = std::make_shared<Evidence>();
  e->kind = k;
  return e;
}

void encode_string(Bytes& out, std::string_view s) {
  crypto::append_u32(out, static_cast<std::uint32_t>(s.size()));
  crypto::append(out, crypto::as_bytes(s));
}

std::string decode_string(BytesView data, std::size_t& off) {
  const std::uint32_t len = crypto::read_u32(data, off);
  off += 4;
  if (off + len > data.size()) {
    throw std::invalid_argument("evidence decode: truncated string");
  }
  std::string s(reinterpret_cast<const char*>(data.data() + off), len);
  off += len;
  return s;
}

Digest decode_digest(BytesView data, std::size_t& off) {
  if (off + 32 > data.size()) {
    throw std::invalid_argument("evidence decode: truncated digest");
  }
  Digest d;
  std::copy(data.begin() + static_cast<std::ptrdiff_t>(off),
            data.begin() + static_cast<std::ptrdiff_t>(off + 32), d.v.begin());
  off += 32;
  return d;
}

// What a signature node encodes between its kind byte and its child.
void encode_signature_fields(Bytes& out, std::string_view place,
                             const crypto::Signature& sig) {
  encode_string(out, place);
  const Bytes sig_bytes = sig.serialize();
  crypto::append_u32(out, static_cast<std::uint32_t>(sig_bytes.size()));
  crypto::append(out, BytesView{sig_bytes.data(), sig_bytes.size()});
}

void encode_rec(const EvidencePtr& e, Bytes& out) {
  if (!e) throw std::invalid_argument("evidence encode: null node");
  out.push_back(static_cast<std::uint8_t>(e->kind));
  switch (e->kind) {
    case EvidenceKind::kEmpty:
      return;
    case EvidenceKind::kMeasurement:
      encode_string(out, e->asp);
      encode_string(out, e->place);
      encode_string(out, e->target);
      crypto::append(out, e->value);
      encode_string(out, e->claim);
      return;
    case EvidenceKind::kNonce:
      crypto::append(out, e->nonce.value);
      return;
    case EvidenceKind::kSignature:
      encode_signature_fields(out, e->place, e->sig);
      encode_rec(e->child, out);
      return;
    case EvidenceKind::kHashed:
      encode_string(out, e->place);
      crypto::append(out, e->hash_value);
      return;
    case EvidenceKind::kSeq:
    case EvidenceKind::kPar:
      encode_rec(e->left, out);
      encode_rec(e->right, out);
      return;
    case EvidenceKind::kFuncOut:
      encode_string(out, e->func);
      encode_string(out, e->place);
      crypto::append_u32(out, static_cast<std::uint32_t>(e->output.size()));
      crypto::append(out, BytesView{e->output.data(), e->output.size()});
      encode_rec(e->child, out);
      return;
  }
  throw std::invalid_argument("evidence encode: unknown kind");
}

void check_depth(std::size_t depth) {
  if (depth > kMaxEvidenceDepth) {
    throw std::invalid_argument("evidence decode: nested too deep");
  }
}

// The signature a kSignature node carries between its place and its
// child; `off` moves past it.
crypto::Signature decode_signature(BytesView data, std::size_t& off) {
  const std::uint32_t sig_len = crypto::read_u32(data, off);
  off += 4;
  if (off + sig_len > data.size()) {
    throw std::invalid_argument("evidence decode: truncated signature");
  }
  crypto::Signature sig =
      crypto::Signature::deserialize(data.subspan(off, sig_len));
  off += sig_len;
  return sig;
}

EvidencePtr decode_rec(BytesView data, std::size_t& off, std::size_t depth) {
  check_depth(depth);
  if (off >= data.size()) {
    throw std::invalid_argument("evidence decode: truncated node");
  }
  const auto kind = static_cast<EvidenceKind>(data[off++]);
  switch (kind) {
    case EvidenceKind::kEmpty:
      return Evidence::empty();
    case EvidenceKind::kMeasurement: {
      auto e = make(EvidenceKind::kMeasurement);
      e->asp = decode_string(data, off);
      e->place = decode_string(data, off);
      e->target = decode_string(data, off);
      e->value = decode_digest(data, off);
      e->claim = decode_string(data, off);
      return e;
    }
    case EvidenceKind::kNonce: {
      auto e = make(EvidenceKind::kNonce);
      e->nonce.value = decode_digest(data, off);
      return e;
    }
    case EvidenceKind::kSignature: {
      auto e = make(EvidenceKind::kSignature);
      e->place = decode_string(data, off);
      e->sig = decode_signature(data, off);
      e->child = decode_rec(data, off, depth + 1);
      return e;
    }
    case EvidenceKind::kHashed: {
      auto e = make(EvidenceKind::kHashed);
      e->place = decode_string(data, off);
      e->hash_value = decode_digest(data, off);
      return e;
    }
    case EvidenceKind::kSeq:
    case EvidenceKind::kPar: {
      auto e = make(kind);
      e->left = decode_rec(data, off, depth + 1);
      e->right = decode_rec(data, off, depth + 1);
      return e;
    }
    case EvidenceKind::kFuncOut: {
      auto e = make(EvidenceKind::kFuncOut);
      e->func = decode_string(data, off);
      e->place = decode_string(data, off);
      const std::uint32_t out_len = crypto::read_u32(data, off);
      off += 4;
      if (off + out_len > data.size()) {
        throw std::invalid_argument("evidence decode: truncated output");
      }
      e->output.assign(data.begin() + static_cast<std::ptrdiff_t>(off),
                       data.begin() + static_cast<std::ptrdiff_t>(off + out_len));
      off += out_len;
      e->child = decode_rec(data, off, depth + 1);
      return e;
    }
  }
  throw std::invalid_argument("evidence decode: unknown kind byte");
}

// decode_string / decode_digest without the copy.
void skip_string(BytesView data, std::size_t& off) {
  const std::uint32_t len = crypto::read_u32(data, off);
  off += 4;
  if (off + len > data.size()) {
    throw std::invalid_argument("evidence decode: truncated string");
  }
  off += len;
}

void skip_digest(BytesView data, std::size_t& off) {
  if (off + 32 > data.size()) {
    throw std::invalid_argument("evidence decode: truncated digest");
  }
  off += 32;
}

// decode_rec without the tree: the same checks in the same order, so it
// rejects exactly what decode_rec rejects.
void scan_rec(BytesView data, std::size_t& off, std::size_t depth) {
  check_depth(depth);
  if (off >= data.size()) {
    throw std::invalid_argument("evidence decode: truncated node");
  }
  const auto kind = static_cast<EvidenceKind>(data[off++]);
  switch (kind) {
    case EvidenceKind::kEmpty:
      return;
    case EvidenceKind::kMeasurement:
      skip_string(data, off);
      skip_string(data, off);
      skip_string(data, off);
      skip_digest(data, off);
      skip_string(data, off);
      return;
    case EvidenceKind::kNonce:
      skip_digest(data, off);
      return;
    case EvidenceKind::kSignature:
      skip_string(data, off);
      (void)decode_signature(data, off);
      scan_rec(data, off, depth + 1);
      return;
    case EvidenceKind::kHashed:
      skip_string(data, off);
      skip_digest(data, off);
      return;
    case EvidenceKind::kSeq:
    case EvidenceKind::kPar:
      scan_rec(data, off, depth + 1);
      scan_rec(data, off, depth + 1);
      return;
    case EvidenceKind::kFuncOut: {
      skip_string(data, off);
      skip_string(data, off);
      const std::uint32_t out_len = crypto::read_u32(data, off);
      off += 4;
      if (off + out_len > data.size()) {
        throw std::invalid_argument("evidence decode: truncated output");
      }
      off += out_len;
      scan_rec(data, off, depth + 1);
      return;
    }
  }
  throw std::invalid_argument("evidence decode: unknown kind byte");
}

}  // namespace

EvidencePtr Evidence::empty() {
  static const EvidencePtr kEmptyInstance = make(EvidenceKind::kEmpty);
  return kEmptyInstance;
}

EvidencePtr Evidence::measurement(std::string asp, std::string place,
                                  std::string target, Digest value,
                                  std::string claim) {
  auto e = make(EvidenceKind::kMeasurement);
  e->asp = std::move(asp);
  e->place = std::move(place);
  e->target = std::move(target);
  e->value = value;
  e->claim = std::move(claim);
  return e;
}

EvidencePtr Evidence::nonce_ev(crypto::Nonce n) {
  auto e = make(EvidenceKind::kNonce);
  e->nonce = n;
  return e;
}

EvidencePtr Evidence::signature(std::string place, EvidencePtr child,
                                crypto::Signature sig) {
  auto e = make(EvidenceKind::kSignature);
  e->place = std::move(place);
  e->child = std::move(child);
  e->sig = std::move(sig);
  return e;
}

EvidencePtr Evidence::hashed(std::string place, Digest value) {
  auto e = make(EvidenceKind::kHashed);
  e->place = std::move(place);
  e->hash_value = value;
  return e;
}

EvidencePtr Evidence::seq(EvidencePtr l, EvidencePtr r) {
  auto e = make(EvidenceKind::kSeq);
  e->left = std::move(l);
  e->right = std::move(r);
  return e;
}

EvidencePtr Evidence::par(EvidencePtr l, EvidencePtr r) {
  auto e = make(EvidenceKind::kPar);
  e->left = std::move(l);
  e->right = std::move(r);
  return e;
}

EvidencePtr Evidence::func_out(std::string func, std::string place,
                               EvidencePtr input, Bytes output) {
  auto e = make(EvidenceKind::kFuncOut);
  e->func = std::move(func);
  e->place = std::move(place);
  e->child = std::move(input);
  e->output = std::move(output);
  return e;
}

EvidencePtr Evidence::extend(const EvidencePtr& acc, EvidencePtr item) {
  if (!acc || acc->kind == EvidenceKind::kEmpty) return item;
  return seq(acc, std::move(item));
}

Bytes encode(const EvidencePtr& e) {
  Bytes out;
  encode_rec(e, out);
  return out;
}

Bytes encode_signature(std::string_view place, const crypto::Signature& sig,
                       BytesView child) {
  Bytes out;
  out.push_back(static_cast<std::uint8_t>(EvidenceKind::kSignature));
  encode_signature_fields(out, place, sig);
  crypto::append(out, child);
  return out;
}

EvidencePtr decode(BytesView data) {
  std::size_t off = 0;
  EvidencePtr e = decode_rec(data, off, 1);
  if (off != data.size()) {
    throw std::invalid_argument("evidence decode: trailing bytes");
  }
  return e;
}

ScannedEvidence scan(BytesView data) {
  ScannedEvidence out;
  out.content = data;
  std::size_t off = 0;
  if (!data.empty() &&
      data[0] == static_cast<std::uint8_t>(EvidenceKind::kSignature)) {
    // The outermost signature node, unrolled: keep its signature and
    // where its child starts.
    off = 1;
    skip_string(data, off);
    out.sig = decode_signature(data, off);
    out.is_signed = true;
    out.content = data.subspan(off);
    scan_rec(data, off, 2);
  } else {
    scan_rec(data, off, 1);
  }
  if (off != data.size()) {
    throw std::invalid_argument("evidence decode: trailing bytes");
  }
  return out;
}

Digest digest(const EvidencePtr& e) {
  const Bytes enc = encode(e);
  return crypto::sha256(BytesView{enc.data(), enc.size()});
}

Digest digest(const EncodedEvidence& e) { return crypto::sha256(e.view()); }

std::size_t wire_size(const EvidencePtr& e) { return encode(e).size(); }

std::size_t node_count(const EvidencePtr& e) {
  if (!e) return 0;
  return 1 + node_count(e->child) + node_count(e->left) + node_count(e->right);
}

namespace {
void describe_rec(const EvidencePtr& e, int indent, std::string& out) {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  switch (e->kind) {
    case EvidenceKind::kEmpty:
      out += pad + "(empty)\n";
      return;
    case EvidenceKind::kMeasurement:
      out += pad + "measurement: " + e->asp + "@" + e->place + " measured " +
             e->target + " = " + e->value.short_hex();
      if (!e->claim.empty()) out += " [" + e->claim + "]";
      out += '\n';
      return;
    case EvidenceKind::kNonce:
      out += pad + "nonce: " + e->nonce.value.short_hex() + "\n";
      return;
    case EvidenceKind::kSignature:
      out += pad + "signed by " + e->place + " (" +
             crypto::to_string(e->sig.scheme) + ", " +
             std::to_string(e->sig.wire_size()) + " B):\n";
      describe_rec(e->child, indent + 1, out);
      return;
    case EvidenceKind::kHashed:
      out += pad + "hashed at " + e->place + ": " + e->hash_value.short_hex() +
             "\n";
      return;
    case EvidenceKind::kSeq:
      out += pad + "seq:\n";
      describe_rec(e->left, indent + 1, out);
      describe_rec(e->right, indent + 1, out);
      return;
    case EvidenceKind::kPar:
      out += pad + "par:\n";
      describe_rec(e->left, indent + 1, out);
      describe_rec(e->right, indent + 1, out);
      return;
    case EvidenceKind::kFuncOut:
      out += pad + "func " + e->func + "@" + e->place + " (" +
             std::to_string(e->output.size()) + " B out):\n";
      describe_rec(e->child, indent + 1, out);
      return;
  }
}
}  // namespace

std::string describe(const EvidencePtr& e) {
  std::string out;
  describe_rec(e, 0, out);
  return out;
}

bool equal(const EvidencePtr& a, const EvidencePtr& b) {
  if (a == b) return true;
  if (!a || !b) return false;
  return encode(a) == encode(b);
}

namespace {
template <typename Pred>
void collect(const EvidencePtr& e, std::vector<const Evidence*>& out,
             Pred pred) {
  if (!e) return;
  if (pred(*e)) out.push_back(e.get());
  collect(e->child, out, pred);
  collect(e->left, out, pred);
  collect(e->right, out, pred);
}
}  // namespace

std::vector<const Evidence*> measurements_of(const EvidencePtr& e) {
  std::vector<const Evidence*> out;
  collect(e, out, [](const Evidence& n) {
    return n.kind == EvidenceKind::kMeasurement;
  });
  return out;
}

std::vector<const Evidence*> signatures_of(const EvidencePtr& e) {
  std::vector<const Evidence*> out;
  collect(e, out, [](const Evidence& n) {
    return n.kind == EvidenceKind::kSignature;
  });
  return out;
}

std::vector<const Evidence*> nonces_of(const EvidencePtr& e) {
  std::vector<const Evidence*> out;
  collect(e, out, [](const Evidence& n) {
    return n.kind == EvidenceKind::kNonce;
  });
  return out;
}

EvidencePtr fold_par(std::vector<EvidencePtr> items) {
  if (items.empty()) return Evidence::empty();
  while (items.size() > 1) {
    std::vector<EvidencePtr> next;
    next.reserve((items.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < items.size(); i += 2) {
      next.push_back(Evidence::par(items[i], items[i + 1]));
    }
    if (items.size() % 2 == 1) next.push_back(items.back());
    items = std::move(next);
  }
  return items.front();
}

EvidencePtr fold_par_canonical(std::vector<EvidencePtr> items) {
  std::sort(items.begin(), items.end(),
            [](const EvidencePtr& a, const EvidencePtr& b) {
              return encode(a) < encode(b);
            });
  return fold_par(std::move(items));
}

}  // namespace pera::copland
