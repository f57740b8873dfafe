#include "core/netkat_bridge.h"

#include <algorithm>

namespace pera::core {

using dataplane::ActionDef;
using dataplane::DataplaneProgram;
using dataplane::KeySpec;
using dataplane::MatchKind;
using dataplane::Op;
using dataplane::OpKind;
using dataplane::Table;
using dataplane::TableEntry;
using netkat::Policy;
using netkat::PolicyPtr;
using netkat::Predicate;
using netkat::PredPtr;

netkat::Packet abstract_packet(const dataplane::ParsedPacket& pkt) {
  netkat::Packet out;
  out.set(bridge_fields::kPort, pkt.meta.ingress_port);
  out.set("meta.ingress_port", pkt.meta.ingress_port);
  out.set("meta.user0", pkt.meta.user0);
  out.set("meta.user1", pkt.meta.user1);
  for (const auto& h : pkt.headers()) {
    out.set("valid." + h.spec->name, 1);
    for (std::size_t i = 0; i < h.spec->fields.size(); ++i) {
      out.set(h.spec->name + "." + h.spec->fields[i].name, h.values[i]);
    }
  }
  return out;
}

namespace {

std::uint64_t lpm_mask(unsigned width, unsigned plen) {
  const unsigned w = width == 0 || width > 64 ? 64 : width;
  const unsigned p = plen > w ? w : plen;
  if (p == 0) return 0;
  if (p >= 64) return ~0ULL;
  return ((std::uint64_t{1} << p) - 1) << (w - p);
}

std::string key_field_name(const KeySpec& spec) {
  // Metadata fields keep their meta. prefix; header fields use hdr.field.
  return spec.field.str();
}

// One entry's match condition over the bridge fields.
PredPtr entry_match(const Table& table, const TableEntry& e) {
  PredPtr acc = Predicate::tru();
  for (std::size_t i = 0; i < table.keys().size(); ++i) {
    const KeySpec& spec = table.keys()[i];
    const auto& m = e.keys[i];
    const std::string field = key_field_name(spec);
    // Header fields only match when the header was parsed.
    if (spec.field.header != "meta") {
      acc = Predicate::conj(
          acc, Predicate::test("valid." + spec.field.header, 1));
    }
    switch (spec.kind) {
      case MatchKind::kExact:
        acc = Predicate::conj(acc, Predicate::test(field, m.value));
        break;
      case MatchKind::kLpm:
        acc = Predicate::conj(
            acc, Predicate::test_masked(field, m.value,
                                        lpm_mask(spec.width, m.prefix_len)));
        break;
      case MatchKind::kTernary:
        acc = Predicate::conj(
            acc, Predicate::test_masked(field, m.value, m.mask));
        break;
    }
  }
  return acc;
}

// Translate an action body with entry-bound parameters.
PolicyPtr action_policy(const DataplaneProgram& program,
                        const std::string& action_name,
                        const std::vector<std::uint64_t>& params) {
  if (action_name.empty()) return Policy::id();
  const ActionDef* action = program.action(action_name);
  if (action == nullptr) {
    throw BridgeError("to_netkat: unknown action '" + action_name + "'");
  }
  PolicyPtr acc = Policy::id();
  for (const Op& op : action->ops) {
    switch (op.kind) {
      case OpKind::kSetField:
        acc = Policy::seq(acc, Policy::mod(op.dst.str(),
                                           op.a.resolve(params)));
        break;
      case OpKind::kSetEgressPort:
        acc = Policy::seq(
            acc, Policy::mod(bridge_fields::kPort, op.a.resolve(params)));
        break;
      case OpKind::kDrop:
        acc = Policy::seq(acc, Policy::mod(bridge_fields::kDrop, 1));
        break;
      case OpKind::kSetUserMeta:
        acc = Policy::seq(
            acc, Policy::mod(op.which_meta == 0 ? "meta.user0" : "meta.user1",
                             op.a.resolve(params)));
        break;
      case OpKind::kNoop:
        break;
      case OpKind::kCopyField:
      case OpKind::kAddToField:
      case OpKind::kRegWrite:
      case OpKind::kRegReadToMeta:
        throw BridgeError("to_netkat: action '" + action_name +
                          "' uses a construct outside the stateless "
                          "NetKAT fragment");
    }
  }
  return acc;
}

// Priority-resolve a table into an if-then-else chain:
//   m1;a1 + !m1;(m2;a2 + !m2;(... + default))
PolicyPtr table_policy(const DataplaneProgram& program, const Table& table) {
  // Order entries the way Table::lookup picks winners.
  std::vector<const TableEntry*> ordered;
  ordered.reserve(table.entries().size());
  for (const auto& e : table.entries()) ordered.push_back(&e);
  const auto specificity = [&table](const TableEntry* e) {
    unsigned total = 0;
    for (std::size_t i = 0; i < e->keys.size(); ++i) {
      if (table.keys()[i].kind == MatchKind::kLpm) {
        total += e->keys[i].prefix_len;
      }
    }
    return total;
  };
  std::stable_sort(ordered.begin(), ordered.end(),
                   [&](const TableEntry* a, const TableEntry* b) {
                     if (a->priority != b->priority) {
                       return a->priority > b->priority;
                     }
                     return specificity(a) > specificity(b);
                   });

  PolicyPtr chain =
      action_policy(program, table.default_action(), table.default_params());
  for (auto it = ordered.rbegin(); it != ordered.rend(); ++it) {
    const TableEntry& e = **it;
    const PredPtr match = entry_match(table, e);
    const PolicyPtr hit =
        Policy::seq(Policy::filter(match),
                    action_policy(program, e.action, e.action_params));
    const PolicyPtr miss =
        Policy::seq(Policy::filter(Predicate::neg(match)), chain);
    chain = Policy::unite(hit, miss);
  }
  return chain;
}

}  // namespace

PolicyPtr to_netkat(const DataplaneProgram& program) {
  // Tables run in order; a dropped packet skips the rest (the switch
  // checks meta.drop before each table).
  PolicyPtr acc = Policy::id();
  const PredPtr not_dropped = Predicate::test(bridge_fields::kDrop, 0);
  for (const auto& table : program.tables()) {
    const PolicyPtr stage = Policy::unite(
        Policy::seq(Policy::filter(not_dropped), table_policy(program, *table)),
        Policy::filter(Predicate::neg(not_dropped)));
    acc = Policy::seq(acc, stage);
  }
  // Finally, dropped packets produce no output.
  return Policy::seq(acc, Policy::filter(not_dropped));
}

bool behaviors_agree(const std::shared_ptr<DataplaneProgram>& program,
                     const dataplane::RawPacket& raw) {
  dataplane::PisaSwitch sw(program);
  dataplane::ParsedPacket parsed;
  try {
    parsed = sw.parse(raw);
  } catch (const std::exception&) {
    return true;  // unparseable packets are outside the model
  }
  const netkat::Packet input = abstract_packet(parsed);

  sw.run_pipeline(parsed);
  const auto switch_out = sw.deparse(parsed);

  const netkat::PacketSet model_out = netkat::eval(to_netkat(*program), input);

  if (!switch_out.has_value()) return model_out.empty();
  if (model_out.size() != 1) return false;
  const netkat::Packet& m = *model_out.begin();
  if (m.get(bridge_fields::kPort) != switch_out->port) return false;
  // Every header field of the final packet must agree.
  for (const auto& h : parsed.headers()) {
    for (std::size_t i = 0; i < h.spec->fields.size(); ++i) {
      const std::string name = h.spec->name + "." + h.spec->fields[i].name;
      if (m.get(name) != h.values[i]) return false;
    }
  }
  return true;
}

bool refines(const std::shared_ptr<DataplaneProgram>& program,
             const netkat::PolicyPtr& spec,
             const std::vector<dataplane::RawPacket>& universe) {
  dataplane::PisaSwitch sw(program);
  for (const auto& raw : universe) {
    dataplane::ParsedPacket parsed;
    try {
      parsed = sw.parse(raw);
    } catch (const std::exception&) {
      continue;
    }
    const netkat::Packet input = abstract_packet(parsed);
    const netkat::PacketSet allowed = netkat::eval(spec, input);

    dataplane::ParsedPacket run = parsed;
    sw.run_pipeline(run);
    const auto out = sw.deparse(run);
    if (!out.has_value()) continue;  // dropping is always allowed to refine

    const bool permitted = std::any_of(
        allowed.begin(), allowed.end(), [&](const netkat::Packet& p) {
          return p.get(bridge_fields::kPort) == out->port;
        });
    if (!permitted) return false;
  }
  return true;
}

}  // namespace pera::core
