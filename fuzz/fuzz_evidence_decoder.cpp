// Fuzz harness for every wire decoder an attacker can reach over the
// network: the Copland evidence codec and the challenge / evidence /
// nonce message formats. The invariant: arbitrary bytes either decode or
// throw a std::exception — never a crash, hang, or out-of-bounds read.
//
// The evidence scanner the appraiser runs (copland::scan) is checked
// against the decoder: it must accept exactly the inputs decode()
// accepts, and on those report the decoded term's outer signature (key id
// included) and, as the signed-content slice, the bytes of
// encode(child) — or of the whole term when it is unsigned. A mismatch
// aborts.
//
// Built by -DPERA_FUZZ=ON: with libFuzzer under clang, or with the
// standalone replay/mutation driver (standalone_driver.cpp) elsewhere.
// Seed corpus: tests/fixtures/fuzz/*.bin (genuine serialized messages).
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <optional>

#include "copland/evidence.h"
#include "core/wire.h"
#include "crypto/bytes.h"

namespace {

void check_scan_matches_decode(pera::crypto::BytesView view) {
  namespace copland = pera::copland;
  copland::EvidencePtr tree;
  try {
    tree = copland::decode(view);
  } catch (const std::exception&) {
  }
  std::optional<copland::ScannedEvidence> scanned;
  try {
    scanned = copland::scan(view);
  } catch (const std::exception&) {
  }
  if ((tree != nullptr) != scanned.has_value()) std::abort();
  if (tree == nullptr) return;
  const bool is_signed = tree->kind == copland::EvidenceKind::kSignature;
  if (scanned->is_signed != is_signed) std::abort();
  const pera::crypto::Bytes content =
      copland::encode(is_signed ? tree->child : tree);
  if (!std::equal(content.begin(), content.end(), scanned->content.begin(),
                  scanned->content.end())) {
    std::abort();
  }
  // Signature equality covers the key id.
  if (is_signed && !(scanned->sig == tree->sig)) std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const pera::crypto::BytesView view{data, size};
  check_scan_matches_decode(view);
  try {
    (void)pera::core::Challenge::deserialize(view);
  } catch (const std::exception&) {
  }
  try {
    (void)pera::core::EvidenceMsg::deserialize(view);
  } catch (const std::exception&) {
  }
  try {
    (void)pera::core::NonceMsg::deserialize(view);
  } catch (const std::exception&) {
  }
  return 0;
}
