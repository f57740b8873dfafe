#include "dataplane_corpus.h"

#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>

#include "dataplane/builder.h"
#include "dataplane/p4mini.h"

namespace pera::dataplane::corpus {

namespace {

Op field_op(OpKind kind, FieldRef dst, Operand a = {}, FieldRef src = {}) {
  Op op;
  op.kind = kind;
  op.dst = std::move(dst);
  op.src = std::move(src);
  op.a = a;
  return op;
}

Op reg_op(OpKind kind, std::string reg, Operand a, Operand b = {}) {
  Op op;
  op.kind = kind;
  op.reg = std::move(reg);
  op.a = a;
  op.b = b;
  return op;
}

TableEntry entry(std::vector<KeyMatch> keys, std::string action,
                 std::vector<std::uint64_t> params = {},
                 std::uint32_t priority = 0) {
  TableEntry e;
  e.keys = std::move(keys);
  e.action = std::move(action);
  e.action_params = std::move(params);
  e.priority = priority;
  return e;
}

// Field rewrites, register reads and writes, and pipeline faults: the
// "rewrite" default writes tcp.dport, so every non-TCP frame faults; two
// "classify" entries index registers out of range, one after a write.
std::shared_ptr<DataplaneProgram> make_rewriter() {
  auto prog = std::make_shared<DataplaneProgram>("rewriter", "v1",
                                                 standard_parser());
  prog->add_action(stdaction::forward());
  prog->add_action(stdaction::drop());
  prog->add_action(stdaction::noop());
  prog->add_action(stdaction::set_field("tcp.dport"));
  prog->declare_register("cnt", 16);
  prog->declare_register("last", 4, true, StateGuard::kSaturate);

  ActionDef dec_ttl{"dec_ttl", 0,
                    {field_op(OpKind::kAddToField, {"ipv4", "ttl"},
                              Operand::imm(0xff))}};
  ActionDef reflect{"reflect", 0,
                    {field_op(OpKind::kCopyField, {"ipv4", "dst"}, {},
                              {"ipv4", "src"})}};
  Op mark;
  mark.kind = OpKind::kSetUserMeta;
  mark.which_meta = 1;
  mark.a = Operand::imm(7);
  ActionDef count{"count", 2,
                  {reg_op(OpKind::kRegReadToMeta, "cnt", Operand::param(0)),
                   reg_op(OpKind::kRegWrite, "cnt", Operand::param(0),
                          Operand::param(1)),
                   mark}};
  ActionDef stamp{"stamp", 2,
                  {reg_op(OpKind::kRegWrite, "last", Operand::param(0),
                          Operand::imm(5)),
                   field_op(OpKind::kSetField, {"tcp", "window"},
                            Operand::param(1))}};
  for (ActionDef* a : {&dec_ttl, &reflect, &count, &stamp}) {
    prog->add_action(std::move(*a));
  }

  Table& classify = prog->add_table(
      "classify", {KeySpec{{"meta", "ingress_port"}, MatchKind::kExact}});
  classify.add_entry(entry({KeyMatch::exact(1)}, "count", {3, 9}));
  classify.add_entry(entry({KeyMatch::exact(2)}, "count", {20, 1}));
  classify.add_entry(entry({KeyMatch::exact(3)}, "stamp", {2, 777}));
  classify.add_entry(entry({KeyMatch::exact(4)}, "stamp", {1, 1}));
  classify.add_entry(entry({KeyMatch::exact(5)}, "stamp", {6, 1}));
  classify.set_default("");

  Table& rewrite = prog->add_table(
      "rewrite", {KeySpec{{"ipv4", "proto"}, MatchKind::kTernary, 8},
                  KeySpec{{"tcp", "dport"}, MatchKind::kTernary, 16}});
  rewrite.add_entry(entry({KeyMatch::ternary(6, 0xff),
                           KeyMatch::ternary(22, 0xffff)},
                          "dec_ttl", {}, 5));
  rewrite.add_entry(entry({KeyMatch::wildcard(), KeyMatch::ternary(80, 0xffff)},
                          "reflect", {}, 5));
  rewrite.add_entry(entry({KeyMatch::wildcard(),
                           KeyMatch::ternary(443, 0xffff)},
                          "set_tcp.dport", {4443}, 5));
  rewrite.set_default("set_tcp.dport", {8080});

  Table& user = prog->add_table(
      "user", {KeySpec{{"meta", "user0"}, MatchKind::kExact}});
  user.add_entry(entry({KeyMatch::exact(9)}, "forward", {4}));
  user.add_entry(entry({KeyMatch::exact(0)}, "forward", {2}));
  user.set_default("forward", {1});

  Table& route =
      prog->add_table("route", {KeySpec{{"ipv4", "dst"}, MatchKind::kLpm, 32}});
  route.add_entry(entry({KeyMatch::lpm(0x0a000100, 24)}, "forward", {5}));
  route.add_entry(entry({KeyMatch::lpm(0x0a000000, 8)}, "forward", {6}));
  route.set_default("");
  return prog;
}

// A parse loop (stacked VLAN tags), sub-byte fields, a 12-bit header
// with pad bits, parser error states (an unknown next state and a select
// on a missing field), and keys on metadata in a mixed-kind table.
std::shared_ptr<DataplaneProgram> make_vlan_stack() {
  const HeaderSpec vlan{"vlan",
                        {{"pcp", 3}, {"dei", 1}, {"vid", 12}, {"ethertype", 16}}};
  const HeaderSpec odd{"odd", {{"a", 5}, {"b", 7}}};
  ParserProgram parser({{"eth", stdhdr::ethernet()},
                        {"vlan", vlan},
                        {"ipv4", stdhdr::ipv4()},
                        {"odd", odd}});
  ParserState start;
  start.name = "start";
  start.header = "eth";
  start.select = ParserSelect{"ethertype",
                              {{0x8100, "parse_vlan"},
                               {0x0800, "parse_ipv4"},
                               {0x88b5, "parse_odd"},
                               {0x88b6, "parse_bad"},
                               {0x9999, "nowhere"}},
                              "accept"};
  parser.add_state(std::move(start));
  ParserState pv;
  pv.name = "parse_vlan";
  pv.header = "vlan";
  pv.select = ParserSelect{"ethertype",
                           {{0x8100, "parse_vlan"},
                            {0x0800, "parse_ipv4"},
                            {0x88b5, "parse_odd"}},
                           "accept"};
  parser.add_state(std::move(pv));
  ParserState pi;
  pi.name = "parse_ipv4";
  pi.header = "ipv4";
  parser.add_state(std::move(pi));
  ParserState po;
  po.name = "parse_odd";
  po.header = "odd";
  parser.add_state(std::move(po));
  ParserState pb;
  pb.name = "parse_bad";
  pb.header = "odd";
  pb.select = ParserSelect{"zzz", {}, "accept"};
  parser.add_state(std::move(pb));

  auto prog = std::make_shared<DataplaneProgram>("vlan_stack", "v1",
                                                 std::move(parser));
  prog->add_action(stdaction::forward());
  prog->add_action(stdaction::drop());
  prog->add_action(stdaction::set_field("vlan.pcp"));
  prog->add_action(ActionDef{
      "bump_b", 1,
      {field_op(OpKind::kAddToField, {"odd", "b"}, Operand::param(0))}});
  prog->add_action(ActionDef{
      "vid_to_b", 0,
      {field_op(OpKind::kCopyField, {"odd", "b"}, {}, {"vlan", "vid"})}});
  Op mark;
  mark.kind = OpKind::kSetUserMeta;
  mark.which_meta = 0;
  mark.a = Operand::param(0);
  prog->add_action(ActionDef{"mark", 1, {mark}});

  Table& vids = prog->add_table(
      "vids", {KeySpec{{"vlan", "vid"}, MatchKind::kExact, 12}});
  vids.add_entry(entry({KeyMatch::exact(10)}, "set_vlan.pcp", {5}));
  vids.add_entry(entry({KeyMatch::exact(20)}, "mark", {1}));
  vids.add_entry(entry({KeyMatch::exact(30)}, "drop"));
  vids.set_default("");

  Table& oddt = prog->add_table(
      "odd", {KeySpec{{"odd", "a"}, MatchKind::kExact, 5},
              KeySpec{{"meta", "user0"}, MatchKind::kExact}});
  oddt.add_entry(entry({KeyMatch::exact(3), KeyMatch::exact(0)}, "bump_b",
                       {100}));
  oddt.add_entry(entry({KeyMatch::exact(4), KeyMatch::exact(1)}, "vid_to_b"));
  oddt.add_entry(entry({KeyMatch::exact(5), KeyMatch::exact(0)}, "vid_to_b"));
  oddt.set_default("");

  Table& out = prog->add_table(
      "out", {KeySpec{{"meta", "ingress_port"}, MatchKind::kTernary},
              KeySpec{{"meta", "user0"}, MatchKind::kExact}});
  out.add_entry(entry({KeyMatch::wildcard(), KeyMatch::exact(1)}, "forward",
                      {7}, 1));
  out.add_entry(entry({KeyMatch::ternary(0, 3), KeyMatch::exact(0)}, "forward",
                      {2}, 2));
  out.add_entry(entry({KeyMatch::wildcard(), KeyMatch::exact(0)}, "forward",
                      {3}, 1));
  out.set_default("forward", {1});
  return prog;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex_or_dash(const Bytes& b) {
  return b.empty() ? "-" : crypto::to_hex(BytesView{b.data(), b.size()});
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : s) {
    if (c == sep) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  out.push_back(cur);
  return out;
}

std::uint64_t num(const std::string& s) { return std::stoull(s, nullptr, 16); }

// --- seeded op generator ------------------------------------------------------

class Generator {
 public:
  Generator(const CorpusProgram& p, std::uint64_t seed) : p_(p), rng_(seed) {}

  std::string next(DataplaneProgram& prog) {
    if (!p_.mutable_tables.empty() && pick(10) == 0) return table_op(prog);
    const Bytes frame = p_.vlan_traffic ? vlan_frame() : ip_frame();
    std::ostringstream op;
    op << "pkt " << pick(8) << ' ' << hex_or_dash(frame);
    return op.str();
  }

 private:
  std::uint64_t pick(std::uint64_t n) { return rng_() % n; }

  Bytes payload() {
    Bytes b(pick(16) == 0 ? 64 + pick(64) : pick(17));
    for (auto& x : b) x = static_cast<std::uint8_t>(rng_());
    return b;
  }

  std::uint64_t value_pool() {
    static constexpr std::uint64_t kPool[] = {
        0,  1,  2,   3,   4,    5,    6,     9,          10,         17,
        20, 22, 25,  30,  53,   80,   443,   6667,       8080,       31337,
        9,  3,  0x0a000105, 0x0a000202, 0x0a000309, 0x0a000101, 0xC0A80001};
    if (pick(5) == 0) return rng_() & 0xffff;
    return kPool[pick(std::size(kPool))];
  }

  Bytes finish(Bytes frame) {
    const Bytes tail = payload();
    frame.insert(frame.end(), tail.begin(), tail.end());
    if (pick(10) == 0) frame.resize(pick(frame.size()));  // truncated
    if (pick(25) == 0) frame.clear();                      // zero-length
    return frame;
  }

  Bytes ip_frame() {
    PacketSpec spec;
    const std::uint32_t srcs[] = {0x0a000101, 0x0a0a0a0a, 0xC0A80001,
                                  static_cast<std::uint32_t>(rng_())};
    spec.ip_src = srcs[pick(4)];
    spec.ip_dst = pick(4) == 0
                      ? static_cast<std::uint32_t>(rng_())
                      : static_cast<std::uint32_t>(
                            0x0a000000 | (pick(10) << 8) |
                            (pick(3) == 0 ? 0x05 : pick(256)));
    if (pick(6) == 0) {
      const std::uint32_t targets[] = {0x0a000105, 0x0a000207, 0x0a000309};
      spec.ip_dst = targets[pick(3)];
    }
    const std::uint16_t ports[] = {443, 80, 22, 25, 6667, 31337, 53, 8080};
    spec.dport = pick(5) == 0 ? static_cast<std::uint16_t>(rng_())
                              : ports[pick(8)];
    spec.sport = static_cast<std::uint16_t>(1024 + pick(60000));
    spec.ttl = static_cast<std::uint8_t>(pick(256));
    spec.payload_len = 0;
    Bytes frame = make_tcp_packet(spec).data;
    const std::uint64_t kind = pick(10);
    if (kind < 2) {  // UDP: same eth/ipv4, proto 17, a UDP header
      frame.resize(14);
      const Bytes ip = pack_header(
          stdhdr::ipv4(), {0x45, 0, 28, spec.ttl, 17, 0, spec.ip_src,
                           spec.ip_dst});
      const Bytes udp = pack_header(
          stdhdr::udp(), {spec.sport, spec.dport, 8, 0});
      frame.insert(frame.end(), ip.begin(), ip.end());
      frame.insert(frame.end(), udp.begin(), udp.end());
    } else if (kind < 3) {  // non-IP (ARP ethertype)
      frame = pack_header(stdhdr::ethernet(), {rng_() & 0xffffffffffffULL,
                                               rng_() & 0xffffffffffffULL,
                                               0x0806});
    }
    return finish(std::move(frame));
  }

  Bytes vlan_frame() {
    static constexpr std::uint64_t kTypes[] = {0x8100, 0x0800, 0x88b5, 0x88b6,
                                               0x9999, 0x0806, 0x8100, 0x88b5};
    std::uint64_t type = kTypes[pick(std::size(kTypes))];
    Bytes frame = pack_header(stdhdr::ethernet(),
                              {0x0b0b0b0b0b0bULL, 0x0a0a0a0a0a0aULL, type});
    const HeaderSpec vlan{"vlan", {{"pcp", 3}, {"dei", 1}, {"vid", 12},
                                   {"ethertype", 16}}};
    for (int depth = 0; type == 0x8100 && depth < 4; ++depth) {
      type = kTypes[pick(std::size(kTypes))];
      const std::uint64_t vids[] = {10, 20, 30, 40};
      const Bytes tag = pack_header(
          vlan, {pick(8), pick(2), pick(3) == 0 ? pick(4096) : vids[pick(4)],
                 type});
      frame.insert(frame.end(), tag.begin(), tag.end());
    }
    if (type == 0x0800) {
      const Bytes ip = pack_header(stdhdr::ipv4(), {0x45, 0, 20, pick(256), 6,
                                                    0, rng_() & 0xffffffffU,
                                                    rng_() & 0xffffffffU});
      frame.insert(frame.end(), ip.begin(), ip.end());
    } else if (type == 0x88b5 || type == 0x88b6) {
      // Raw bytes, so the four pad bits after the 12-bit header vary.
      frame.push_back(static_cast<std::uint8_t>(pick(3) == 0 ? rng_() : 0x18));
      frame.push_back(static_cast<std::uint8_t>(rng_()));
    }
    return finish(std::move(frame));
  }

  std::string table_op(DataplaneProgram& prog) {
    const std::string& name = p_.mutable_tables[pick(p_.mutable_tables.size())];
    const Table& t = *prog.table(name);
    std::ostringstream op;
    if (t.entry_count() > 0 && pick(3) == 0) {
      op << "del " << name << ' ' << pick(t.entry_count());
      return op.str();
    }
    std::vector<std::string> actions;
    for (const auto& [aname, a] : prog.actions()) actions.push_back(aname);
    const std::string& action = actions[pick(actions.size())];
    op << "add " << name << ' ' << pick(4) << ' ' << action << ' ';
    const std::size_t nparams = prog.action(action)->param_count;
    if (nparams == 0) op << '-';
    for (std::size_t i = 0; i < nparams; ++i) {
      op << (i ? "," : "") << std::hex << pick(21) << std::dec;
    }
    op << ' ';
    for (std::size_t i = 0; i < t.keys().size(); ++i) {
      KeyMatch m;
      switch (t.keys()[i].kind) {
        case MatchKind::kExact:
          m = KeyMatch::exact(value_pool());
          break;
        case MatchKind::kLpm:
          m = KeyMatch::lpm(0x0a000000 | (pick(10) << 8) | pick(256),
                            static_cast<unsigned>(pick(33)));
          break;
        case MatchKind::kTernary: {
          static constexpr std::uint64_t kMasks[] = {
              0xffff, 0xff, 0xffffffff, 0xff000000, 0xffff0000, 0x3};
          m = pick(3) == 0 ? KeyMatch::wildcard()
                           : KeyMatch::ternary(value_pool(),
                                               kMasks[pick(std::size(kMasks))]);
          break;
        }
      }
      op << (i ? "," : "") << std::hex << m.value << '/' << m.prefix_len << '/'
         << m.mask << std::dec;
    }
    return op.str();
  }

  const CorpusProgram& p_;
  std::mt19937_64 rng_;
};

}  // namespace

std::vector<CorpusProgram> programs(const std::string& fixtures_dir) {
  const std::string flowcache = fixtures_dir + "/verify/broken_v9.p4";
  return {
      {"router", [] { return make_router(); }, {"route"}},
      {"firewall", [] { return make_firewall(); }, {"acl"}},
      {"acl", [] { return make_acl(); }, {"allow"}},
      {"monitor", [] { return make_monitor(); }, {"monitor"}},
      {"rogue_router", [] { return make_rogue_router(); }, {"targets"}},
      {"p4_router_v1", [] { return compile_p4mini(p4src::router_v1()); },
       {"route"}},
      {"p4_firewall_v5", [] { return compile_p4mini(p4src::firewall_v5()); },
       {"acl"}},
      {"p4_acl_v3", [] { return compile_p4mini(p4src::acl_v3()); }, {"allow"}},
      {"p4_rogue_router_v1",
       [] { return compile_p4mini(p4src::rogue_router_v1()); },
       {"targets"}},
      {"p4_flowcache",
       [flowcache] { return compile_p4mini(read_file(flowcache)); },
       {"flows"}},
      {"rewriter", make_rewriter, {"classify", "rewrite"}, false, 240},
      {"vlan_stack", make_vlan_stack, {"vids", "out"}, true, 240},
  };
}

Replayer::Replayer(const CorpusProgram& program)
    : program_(program.make()), sw_(program_) {}

std::string Replayer::apply(const std::string& op) {
  const std::vector<std::string> f = split(op, ' ');
  std::ostringstream out;
  if (f[0] == "pkt") {
    RawPacket raw;
    raw.port = static_cast<std::uint32_t>(std::stoul(f[1]));
    if (f[2] != "-") raw.data = crypto::from_hex(f[2]);
    const SwitchStats before = sw_.stats();
    const std::optional<RawPacket> fwd = sw_.process(raw);
    if (sw_.stats().pipeline_faults > before.pipeline_faults) {
      ++faults_;
      out << "fault";
    } else if (fwd.has_value()) {
      out << "fwd " << fwd->port << ' '
          << (fwd->data == raw.data ? "=" : hex_or_dash(fwd->data));
    } else {
      out << (sw_.stats().parse_errors > before.parse_errors ? "parse_error"
                                                             : "drop");
    }
  } else if (f[0] == "add") {
    TableEntry e;
    e.priority = static_cast<std::uint32_t>(std::stoul(f[2]));
    e.action = f[3];
    if (f[4] != "-") {
      for (const std::string& p : split(f[4], ',')) {
        e.action_params.push_back(num(p));
      }
    }
    for (const std::string& k : split(f[5], ',')) {
      const std::vector<std::string> parts = split(k, '/');
      e.keys.push_back(KeyMatch{num(parts[0]),
                                static_cast<unsigned>(num(parts[1])),
                                num(parts[2])});
    }
    program_->table(f[1])->add_entry(std::move(e));
    out << "ok";
  } else if (f[0] == "del") {
    (void)program_->table(f[1])->remove_entry(std::stoul(f[2]));
    out << "ok";
  } else {
    throw std::invalid_argument("corpus: unknown op '" + f[0] + "'");
  }
  const SwitchStats& s = sw_.stats();
  out << " | " << s.packets_in << ',' << s.packets_out << ','
      << s.packets_dropped << ',' << s.parse_errors << ',' << s.table_lookups
      << ',' << s.table_hits << " | "
      << program_->tables_digest().hex().substr(0, 16) << " | "
      << sw_.registers().state_digest().hex().substr(0, 16);
  return out.str();
}

std::vector<std::string> record(const CorpusProgram& program) {
  Replayer replayer(program);
  Generator gen(program, fnv1a(program.name));
  std::vector<std::string> lines;
  lines.reserve(program.steps);
  for (std::size_t i = 0; i < program.steps; ++i) {
    const std::string op = gen.next(replayer.sw().program());
    lines.push_back(op + " | " + replayer.apply(op));
  }
  return lines;
}

}  // namespace pera::dataplane::corpus
