// Match-action actions: small programs of primitive operations, in the
// style of P4 action bodies. Action parameters are bound by table entries
// at control-plane time and referenced by index from the ops. This is the
// symbolic form; the lowered form (lowered.h) resolves every field and
// register name in the ops to a slot and executes that.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "crypto/bytes.h"
#include "dataplane/field.h"

namespace pera::dataplane {

/// Primitive operation kinds.
enum class OpKind : std::uint8_t {
  kSetField,       // field := operand
  kCopyField,      // dst_field := src_field
  kAddToField,     // field += operand (wraps at field width)
  kSetEgressPort,  // meta.egress_port := operand
  kDrop,           // meta.drop := true
  kSetUserMeta,    // meta.user{0,1} := operand (a selects which)
  kRegWrite,       // reg[name][index_operand] := value_operand
  kRegReadToMeta,  // meta.user0 := reg[name][index_operand]
  kNoop,
};

/// An operand is either an immediate or a reference to an action parameter.
struct Operand {
  bool is_param = false;
  std::uint64_t immediate = 0;
  std::size_t param_index = 0;

  static Operand imm(std::uint64_t v) { return {false, v, 0}; }
  static Operand param(std::size_t i) { return {true, 0, i}; }

  [[nodiscard]] std::uint64_t resolve(
      const std::vector<std::uint64_t>& params) const;
};

struct Op {
  OpKind kind = OpKind::kNoop;
  FieldRef dst{};       // kSetField / kCopyField / kAddToField
  FieldRef src{};       // kCopyField
  Operand a{};          // primary operand
  Operand b{};          // secondary operand (kRegWrite value)
  std::string reg;      // register name
  unsigned which_meta = 0;  // kSetUserMeta: 0 or 1
};

/// A named action: ordered ops, executed with entry-bound parameters.
struct ActionDef {
  std::string name;
  std::size_t param_count = 0;
  std::vector<Op> ops;

  /// Canonical encoding for program attestation.
  [[nodiscard]] crypto::Bytes encode() const;
};

/// Common actions.
namespace stdaction {
/// forward(port): set egress port from param 0.
[[nodiscard]] ActionDef forward();
/// drop packet.
[[nodiscard]] ActionDef drop();
/// noop.
[[nodiscard]] ActionDef noop();
/// set_field(hdr.field = param0) — builds a one-op setter.
[[nodiscard]] ActionDef set_field(const std::string& field_ref);
}  // namespace stdaction

}  // namespace pera::dataplane
