#include "dataplane/action.h"

#include <stdexcept>

namespace pera::dataplane {

std::uint64_t Operand::resolve(const std::vector<std::uint64_t>& params) const {
  if (!is_param) return immediate;
  if (param_index >= params.size()) {
    throw std::runtime_error("action operand references missing parameter " +
                             std::to_string(param_index));
  }
  return params[param_index];
}

crypto::Bytes ActionDef::encode() const {
  crypto::Bytes out;
  const auto put_str = [&out](const std::string& s) {
    crypto::append_u32(out, static_cast<std::uint32_t>(s.size()));
    crypto::append(out, crypto::as_bytes(s));
  };
  const auto put_operand = [&out](const Operand& o) {
    out.push_back(o.is_param ? 1 : 0);
    crypto::append_u64(out, o.is_param ? o.param_index : o.immediate);
  };
  put_str(name);
  crypto::append_u32(out, static_cast<std::uint32_t>(param_count));
  crypto::append_u32(out, static_cast<std::uint32_t>(ops.size()));
  for (const Op& op : ops) {
    out.push_back(static_cast<std::uint8_t>(op.kind));
    put_str(op.dst.header);
    put_str(op.dst.field);
    put_str(op.src.header);
    put_str(op.src.field);
    put_operand(op.a);
    put_operand(op.b);
    put_str(op.reg);
    crypto::append_u32(out, op.which_meta);
  }
  return out;
}

namespace stdaction {

ActionDef forward() {
  ActionDef a;
  a.name = "forward";
  a.param_count = 1;
  Op op;
  op.kind = OpKind::kSetEgressPort;
  op.a = Operand::param(0);
  a.ops.push_back(op);
  return a;
}

ActionDef drop() {
  ActionDef a;
  a.name = "drop";
  Op op;
  op.kind = OpKind::kDrop;
  a.ops.push_back(op);
  return a;
}

ActionDef noop() {
  ActionDef a;
  a.name = "noop";
  return a;
}

ActionDef set_field(const std::string& field_ref) {
  ActionDef a;
  a.name = "set_" + field_ref;
  a.param_count = 1;
  Op op;
  op.kind = OpKind::kSetField;
  op.dst = parse_field_ref(field_ref);
  op.a = Operand::param(0);
  a.ops.push_back(op);
  return a;
}

}  // namespace stdaction

}  // namespace pera::dataplane
