#include "dataplane/lowered.h"

#include <algorithm>
#include <stdexcept>

#include "dataplane/program.h"

namespace pera::dataplane {

namespace {

constexpr const char* kMetaFields[] = {"ingress_port", "egress_port",
                                       "packet_id", "user0", "user1"};

std::uint64_t meta_value(const Metadata& m, std::uint8_t field) {
  switch (field) {
    case 0: return m.ingress_port;
    case 1: return m.egress_port;
    case 2: return m.packet_id;
    case 3: return m.user0;
    default: return m.user1;
  }
}

bool operand(const Operand& o, const std::vector<std::uint64_t>& params,
             std::uint64_t& out) {
  if (!o.is_param) {
    out = o.immediate;
    return true;
  }
  if (o.param_index >= params.size()) return false;
  out = params[o.param_index];
  return true;
}

}  // namespace

LoweredProgram::LoweredProgram(const DataplaneProgram& program) {
  // Error messages only; built when one is thrown.
  const auto where = [&program] { return "program '" + program.name() + "': "; };

  // Headers: ids in schema order, one PHV slot per field.
  const auto& schema = program.parser().schema();
  if (schema.size() > 64) {
    throw std::invalid_argument(where() + "more than 64 headers");
  }
  headers_.reserve(schema.size());
  std::size_t field_count = 0;
  for (const auto& entry : schema) field_count += entry.second.fields.size();
  fields_.reserve(field_count);
  for (const auto& [name, spec] : schema) {
    if (spec.name != name) {
      throw std::invalid_argument(where() + "header '" + spec.name +
                                  "' is filed under '" + name + "'");
    }
    Header h;
    h.spec = &spec;
    h.base = slots_;
    h.bytes = spec.byte_width();
    h.fields = static_cast<std::uint32_t>(spec.fields.size());
    h.padded = spec.bit_width() % 8 != 0;
    std::uint32_t offset = 0;
    for (const FieldSpec& f : spec.fields) {
      if (f.bits == 0 || f.bits > 64) {
        throw std::invalid_argument(where() + "field " + name + "." + f.name +
                                    " width must be 1..64");
      }
      fields_.push_back({offset, f.bits});
      offset += f.bits;
    }
    slots_ += h.fields;
    headers_.push_back(h);
  }

  // Parse graph: state i is the program's i-th state (a state named
  // "accept" is never entered). Unresolvable references become error
  // states, so packets that reach them fail exactly where the graph is
  // broken.
  const auto& states = program.parser().states();
  states_.resize(states.size());
  std::size_t index = 0;
  for (const auto& [name, st] : states) {
    State s;
    if (!st.header.empty()) {
      const int h = header_id(st.header);
      if (h < 0) s.error = "parser: unknown header '" + st.header + "'";
      s.header = h;
    }
    if (st.select) {
      if (st.header.empty()) {
        s.error = "parser: select in state '" + name +
                  "' without an extracted header";
      } else if (s.header >= 0) {
        s.select = spec(static_cast<std::uint32_t>(s.header))
                       .field_index(st.select->field);
        if (s.select < 0) {
          s.error = "no field '" + st.select->field + "' in header " +
                    st.header;
        }
      }
      for (const auto& [value, next] : st.select->cases) {
        s.cases.emplace_back(value, state_index(next, states));
      }
      s.next = state_index(st.select->default_next, states);
    } else {
      s.next = state_index(st.next, states);
    }
    states_[index++] = std::move(s);
  }
  start_ = state_index("start", states);

  // Tables: keys to header slots or metadata fields.
  stages_.reserve(program.tables().size());
  for (const auto& t : program.tables()) {
    Stage stage;
    stage.table = t.get();
    for (const KeySpec& k : t->keys()) {
      Key key;
      if (k.field.header == "meta") {
        const auto* it = std::find(std::begin(kMetaFields),
                                   std::end(kMetaFields), k.field.field);
        if (it == std::end(kMetaFields)) {
          throw std::invalid_argument(where() + "table '" + t->name() +
                                      "' key meta." + k.field.field +
                                      " is not a metadata field");
        }
        key.meta = static_cast<std::uint8_t>(it - std::begin(kMetaFields));
      } else {
        key.field = slot_of(k.field, program.name(), "table", t->name());
      }
      stage.keys.push_back(key);
    }
    stages_.push_back(std::move(stage));
  }

  // Actions: ops over slots and register handles. Handles number distinct
  // register names in first-declaration order, as RegisterFile assigns
  // them when a switch declares the program's registers.
  std::map<std::string, std::size_t> registers;
  for (const RegisterDecl& d : program.register_decls()) {
    registers.emplace(d.name, registers.size());
  }
  actions_.resize(program.action_ids().size());
  for (std::size_t id = 0; id < actions_.size(); ++id) {
    const std::string& name = program.action_ids()[id];
    const ActionDef& def = *program.action(name);
    Action& action = actions_[id];
    action.param_count = def.param_count;
    for (const Op& op : def.ops) {
      LOp l;
      l.kind = op.kind;
      l.a = op.a;
      l.b = op.b;
      l.which_meta = op.which_meta;
      switch (op.kind) {
        case OpKind::kCopyField:
          l.src = slot_of(op.src, program.name(), "action", name);
          [[fallthrough]];
        case OpKind::kSetField:
        case OpKind::kAddToField:
          l.dst = slot_of(op.dst, program.name(), "action", name);
          break;
        case OpKind::kRegWrite:
        case OpKind::kRegReadToMeta: {
          const auto it = registers.find(op.reg);
          if (it == registers.end()) {
            throw std::invalid_argument(where() + "action '" + name +
                                        "' references unknown register '" +
                                        op.reg + "'");
          }
          l.reg = it->second;
          break;
        }
        default:
          break;
      }
      action.ops.push_back(l);
    }
  }
}

int LoweredProgram::header_id(const std::string& name) const {
  for (std::size_t h = 0; h < headers_.size(); ++h) {
    if (headers_[h].spec->name == name) return static_cast<int>(h);
  }
  return -1;
}

LoweredProgram::Slot LoweredProgram::slot_of(const FieldRef& ref,
                                             const std::string& program,
                                             const char* kind,
                                             const std::string& owner) const {
  const int h = header_id(ref.header);
  const int f = h < 0 ? -1
                      : headers_[static_cast<std::size_t>(h)]
                            .spec->field_index(ref.field);
  if (f < 0) {
    throw std::invalid_argument(
        "program '" + program + "': " + kind + " '" + owner +
        "' references unknown " +
        (h < 0 ? "header '" + ref.header + "'" : "field '" + ref.str() + "'"));
  }
  const Header& header = headers_[static_cast<std::size_t>(h)];
  const unsigned bits = header.spec->fields[static_cast<std::size_t>(f)].bits;
  return Slot{static_cast<std::uint32_t>(h),
              header.base + static_cast<std::uint32_t>(f),
              low_mask(bits)};
}

std::int32_t LoweredProgram::state_index(
    const std::string& name, const std::map<std::string, ParserState>& states) {
  if (name == "accept") return kAccept;
  const auto it = states.find(name);
  if (it != states.end()) {
    return static_cast<std::int32_t>(std::distance(states.begin(), it));
  }
  // One error state per unknown name, after the program's states.
  std::string error = "parser: unknown state '" + name + "'";
  for (std::size_t i = states.size(); i < states_.size(); ++i) {
    if (states_[i].error == error) return static_cast<std::int32_t>(i);
  }
  states_.emplace_back();
  states_.back().error = std::move(error);
  return static_cast<std::int32_t>(states_.size() - 1);
}

void LoweredProgram::parse(const RawPacket& raw, ParsedPacket& pkt) const {
  pkt.meta = Metadata{};
  pkt.meta.ingress_port = raw.port;
  pkt.program_ = this;
  pkt.wire_ = BytesView{raw.data.data(), raw.data.size()};
  pkt.valid_ = 0;
  pkt.dirty_ = 0;
  pkt.faulted_ = false;
  pkt.heap_.clear();
  pkt.slot_count_ = 0;
  pkt.grow_slots(slots_);
  pkt.extracted_ = 0;

  std::size_t offset = 0;
  std::size_t steps = 0;
  for (std::int32_t s = start_; s != kAccept;) {
    if (++steps > 64) {
      throw std::runtime_error("parser: too many states (loop in parse graph?)");
    }
    const State& st = states_[static_cast<std::size_t>(s)];
    const std::uint64_t* extracted = nullptr;
    if (st.header >= 0) {
      const auto id = static_cast<std::uint32_t>(st.header);
      const Header& h = headers_[id];
      if (raw.data.size() - offset < h.bytes) {
        throw std::invalid_argument(
            "unpack_header: buffer shorter than header " + h.spec->name);
      }
      std::uint32_t base = h.base;
      if (pkt.valid(id)) {  // a repeated header: its own slots at the end
        base = static_cast<std::uint32_t>(pkt.slot_count_);
        pkt.grow_slots(base + h.fields);
      } else {
        pkt.valid_ |= std::uint64_t{1} << id;
      }
      std::uint64_t* values = pkt.slots() + base;
      const Field* field = fields_.data() + h.base;
      for (std::uint32_t i = 0; i < h.fields; ++i) {
        values[i] = read_bits(raw.data.data() + offset, field[i].bit_offset,
                              field[i].bits);
      }
      pkt.order_[pkt.extracted_++] = static_cast<std::uint8_t>(id);
      offset += h.bytes;
      extracted = values;
    }
    if (!st.error.empty()) throw std::runtime_error(st.error);
    if (st.select < 0) {
      s = st.next;
      continue;
    }
    const std::uint64_t v = extracted[st.select];
    const auto it = std::lower_bound(
        st.cases.begin(), st.cases.end(), v,
        [](const auto& c, std::uint64_t x) { return c.first < x; });
    s = it != st.cases.end() && it->first == v ? it->second : st.next;
  }
  pkt.payload_offset_ = offset;
}

bool LoweredProgram::run(ParsedPacket& pkt, RegisterFile& regs,
                         SwitchStats& stats) const {
  const auto fault = [&pkt] {
    pkt.faulted_ = true;
    pkt.meta.drop = true;
    return false;
  };
  if (pkt.program_ != this) return fault();  // parsed by another program
  constexpr std::size_t kInlineKeys = 8;
  std::uint64_t inline_key[kInlineKeys] = {};
  std::vector<std::uint64_t> wide_key;
  for (const Stage& stage : stages_) {
    if (pkt.meta.drop) return true;
    ++stats.table_lookups;
    Table& table = *stage.table;
    std::uint64_t* key = inline_key;
    if (stage.keys.size() > kInlineKeys) {
      wide_key.resize(stage.keys.size());
      key = wide_key.data();
    }
    bool present = true;
    for (std::size_t i = 0; i < stage.keys.size() && present; ++i) {
      const Key& k = stage.keys[i];
      if (k.meta != kNoMeta) {
        key[i] = meta_value(pkt.meta, k.meta);
      } else if (pkt.valid(k.field.header)) {
        key[i] = pkt.slots()[k.field.slot];
      } else {
        present = false;  // an absent header matches no entry
      }
    }
    const std::size_t hit =
        present ? table.match({key, stage.keys.size()}) : Table::npos;
    std::int32_t id;
    const std::vector<std::uint64_t>* params;
    if (hit != Table::npos) {
      ++stats.table_hits;
      id = table.entry_action_id(hit);
      params = &table.entries()[hit].action_params;
    } else {
      id = table.default_action_id();
      if (id == Table::kNoAction) continue;
      params = &table.default_params();
    }
    if (id < 0 || static_cast<std::size_t>(id) >= actions_.size() ||
        !execute(actions_[static_cast<std::size_t>(id)], *params, pkt, regs)) {
      return fault();
    }
  }
  return true;
}

bool LoweredProgram::execute(const Action& action,
                             const std::vector<std::uint64_t>& params,
                             ParsedPacket& pkt, RegisterFile& regs) {
  if (params.size() < action.param_count) return false;
  const auto set = [&pkt](const Slot& dst, std::uint64_t v) {
    pkt.slots()[dst.slot] = v & dst.mask;
    pkt.dirty_ |= std::uint64_t{1} << dst.header;
  };
  for (const LOp& op : action.ops) {
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    switch (op.kind) {
      case OpKind::kSetField:
        if (!operand(op.a, params, a) || !pkt.valid(op.dst.header)) return false;
        set(op.dst, a);
        break;
      case OpKind::kCopyField:
        if (!pkt.valid(op.src.header) || !pkt.valid(op.dst.header)) return false;
        set(op.dst, pkt.slots()[op.src.slot]);
        break;
      case OpKind::kAddToField:
        if (!operand(op.a, params, a) || !pkt.valid(op.dst.header)) return false;
        set(op.dst, pkt.slots()[op.dst.slot] + a);
        break;
      case OpKind::kSetEgressPort:
        if (!operand(op.a, params, a)) return false;
        pkt.meta.egress_port = static_cast<std::uint32_t>(a);
        break;
      case OpKind::kDrop:
        pkt.meta.drop = true;
        break;
      case OpKind::kSetUserMeta:
        if (!operand(op.a, params, a)) return false;
        (op.which_meta == 0 ? pkt.meta.user0 : pkt.meta.user1) = a;
        break;
      case OpKind::kRegWrite:
        if (!operand(op.a, params, a) || !operand(op.b, params, b) ||
            !regs.write_at(op.reg, static_cast<std::size_t>(a), b)) {
          return false;
        }
        break;
      case OpKind::kRegReadToMeta:
        if (!operand(op.a, params, a) ||
            !regs.read_at(op.reg, static_cast<std::size_t>(a), pkt.meta.user0)) {
          return false;
        }
        break;
      case OpKind::kNoop:
        break;
    }
  }
  return true;
}

Bytes LoweredProgram::deparse(const ParsedPacket& pkt) {
  Bytes out(pkt.wire_.begin(), pkt.wire_.end());
  if (pkt.program_ == nullptr) return out;
  pkt.program_->walk(pkt, [&](std::uint32_t id, std::uint32_t base,
                              std::size_t offset) {
    const Header& h = pkt.program_->headers_[id];
    const bool written = base == h.base && ((pkt.dirty_ >> id) & 1) != 0;
    if (!written && !h.padded) return;  // the ingress bytes are current
    std::uint8_t* p = out.data() + offset;
    std::fill(p, p + h.bytes, std::uint8_t{0});
    const std::uint64_t* values = pkt.slots() + base;
    const Field* field = pkt.program_->fields_.data() + h.base;
    for (std::uint32_t i = 0; i < h.fields; ++i) {
      write_bits(p, field[i].bit_offset, field[i].bits, values[i]);
    }
  });
  return out;
}

}  // namespace pera::dataplane
