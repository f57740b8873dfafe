// Tests for the PISA software switch: header packing, the programmable
// parser, match kinds, actions, registers, program digests and the canned
// programs — including the UC1 "stealth" property: the rogue router
// behaves identically on non-target traffic but has a different digest.
#include <gtest/gtest.h>

#include "dataplane/builder.h"
#include "table_oracle.h"

namespace pera::dataplane {
namespace {

// A switch running the standard parser and no tables: the lowered parse
// entry point for packet-level tests. ParsedPacket borrows the program
// that parsed it (see dataplane/packet.h), so this instance is long-lived.
PisaSwitch& std_switch() {
  static PisaSwitch sw(
      std::make_shared<DataplaneProgram>("std", "v1", standard_parser()));
  return sw;
}

// Table::lookup on the key a raw packet presents to `t` (nullptr when a
// keyed header is absent: no entry can match).
TableEntry* lookup(Table& t, const RawPacket& raw) {
  const auto key = oracle::key_of(t, std_switch().parse(raw));
  return key ? t.lookup(*key) : nullptr;
}

// A program whose only table has no keys and runs `action` with `params`
// as its default: how the action tests reach the lowered executor.
std::shared_ptr<DataplaneProgram> one_action(ActionDef action,
                                             std::vector<std::uint64_t> params) {
  auto prog = std::make_shared<DataplaneProgram>("one", "v1", standard_parser());
  const std::string name = action.name;
  prog->add_action(std::move(action));
  prog->add_table("t", {}).set_default(name, std::move(params));
  return prog;
}

// --- header packing ---------------------------------------------------------

class PackRoundTrip
    : public ::testing::TestWithParam<std::vector<std::uint64_t>> {};

TEST_P(PackRoundTrip, Ipv4Identity) {
  const HeaderSpec spec = stdhdr::ipv4();
  const auto values = GetParam();
  const Bytes packed = pack_header(spec, values);
  EXPECT_EQ(packed.size(), spec.byte_width());
  EXPECT_EQ(unpack_header(spec, BytesView{packed.data(), packed.size()}),
            values);
}

INSTANTIATE_TEST_SUITE_P(
    Values, PackRoundTrip,
    ::testing::Values(
        std::vector<std::uint64_t>{0x45, 0, 100, 64, 6, 0, 0x0a000001,
                                   0x0a000002},
        std::vector<std::uint64_t>{0xff, 0xff, 0xffff, 0xff, 0xff, 0xffff,
                                   0xffffffff, 0xffffffff},
        std::vector<std::uint64_t>{0, 0, 0, 0, 0, 0, 0, 0},
        std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6, 7, 8}));

TEST(Pack, EthernetRoundTrip) {
  const HeaderSpec eth = stdhdr::ethernet();
  const std::vector<std::uint64_t> v = {0x112233445566, 0xaabbccddeeff,
                                        0x0800};
  const Bytes packed = pack_header(eth, v);
  EXPECT_EQ(packed.size(), 14u);
  EXPECT_EQ(unpack_header(eth, BytesView{packed.data(), packed.size()}), v);
}

TEST(Pack, ValueCountMismatchThrows) {
  EXPECT_THROW((void)pack_header(stdhdr::tcp(), {1, 2}),
               std::invalid_argument);
}

TEST(Pack, ShortBufferThrows) {
  const Bytes b(3, 0);
  EXPECT_THROW((void)unpack_header(stdhdr::tcp(), BytesView{b.data(), b.size()}),
               std::invalid_argument);
}

TEST(FieldRef, ParseAndReject) {
  const FieldRef r = parse_field_ref("ipv4.dst");
  EXPECT_EQ(r.header, "ipv4");
  EXPECT_EQ(r.field, "dst");
  EXPECT_THROW((void)parse_field_ref("nodot"), std::invalid_argument);
  EXPECT_THROW((void)parse_field_ref(".x"), std::invalid_argument);
  EXPECT_THROW((void)parse_field_ref("x."), std::invalid_argument);
}

// --- parser -------------------------------------------------------------------

TEST(Parser, ParsesEthIpv4Tcp) {
  const RawPacket raw = make_tcp_packet({});
  const ParsedPacket pkt = std_switch().parse(raw);
  EXPECT_TRUE(pkt.has("eth"));
  EXPECT_TRUE(pkt.has("ipv4"));
  EXPECT_TRUE(pkt.has("tcp"));
  EXPECT_EQ(pkt.get("ipv4.dst"), 0x0a000202u);
  EXPECT_EQ(pkt.get("tcp.dport"), 443u);
  EXPECT_EQ(pkt.payload().size(), 64u);
}

TEST(Parser, NonIpStopsAfterEth) {
  const HeaderSpec eth = stdhdr::ethernet();
  RawPacket raw;
  raw.data = pack_header(eth, {1, 2, 0x0806});  // ARP
  raw.data.resize(raw.data.size() + 28, 0);
  const ParsedPacket pkt = std_switch().parse(raw);
  EXPECT_TRUE(pkt.has("eth"));
  EXPECT_FALSE(pkt.has("ipv4"));
  EXPECT_EQ(pkt.payload().size(), 28u);
}

TEST(Parser, TruncatedPacketThrows) {
  RawPacket raw;
  raw.data = {1, 2, 3};
  EXPECT_THROW((void)std_switch().parse(raw), std::invalid_argument);
}

TEST(Parser, DeparseRoundTrips) {
  const RawPacket raw = make_tcp_packet({});
  const ParsedPacket pkt = std_switch().parse(raw);
  const auto out = std_switch().deparse(pkt);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->data, raw.data);
}

TEST(Parser, EncodeIsStable) {
  EXPECT_EQ(standard_parser().encode(), standard_parser().encode());
}

// --- tables ------------------------------------------------------------------

TEST(Table, ExactMatch) {
  Table t("t", {KeySpec{{"tcp", "dport"}, MatchKind::kExact}});
  TableEntry e;
  e.keys = {KeyMatch::exact(443)};
  e.action = "hit";
  t.add_entry(e);
  TableEntry* hit = lookup(t, make_tcp_packet({}));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->action, "hit");
  EXPECT_EQ(hit->hit_count, 1u);
}

TEST(Table, ExactMiss) {
  Table t("t", {KeySpec{{"tcp", "dport"}, MatchKind::kExact}});
  TableEntry e;
  e.keys = {KeyMatch::exact(80)};
  e.action = "hit";
  t.add_entry(e);
  EXPECT_EQ(lookup(t, make_tcp_packet({})), nullptr);
}

TEST(Table, LpmPrefersLongestPrefix) {
  Table t("t", {KeySpec{{"ipv4", "dst"}, MatchKind::kLpm, 32}});
  TableEntry wide;
  wide.keys = {KeyMatch::lpm(0x0a000000, 8)};
  wide.action = "wide";
  t.add_entry(wide);
  TableEntry narrow;
  narrow.keys = {KeyMatch::lpm(0x0a000000, 24)};
  narrow.action = "narrow";
  t.add_entry(narrow);
  PacketSpec spec;
  spec.ip_dst = 0x0a000042;
  TableEntry* hit = lookup(t, make_tcp_packet(spec));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->action, "narrow");
}

TEST(Table, LpmRespectsFieldWidth) {
  Table t("t", {KeySpec{{"ipv4", "dst"}, MatchKind::kLpm, 32}});
  TableEntry e;
  e.keys = {KeyMatch::lpm(0x0a000100, 24)};  // 10.0.1.0/24
  e.action = "hit";
  t.add_entry(e);
  PacketSpec in_subnet;
  in_subnet.ip_dst = 0x0a0001fe;
  PacketSpec out_subnet;
  out_subnet.ip_dst = 0x0a0002fe;
  EXPECT_NE(lookup(t, make_tcp_packet(in_subnet)), nullptr);
  EXPECT_EQ(lookup(t, make_tcp_packet(out_subnet)), nullptr);
}

TEST(Table, TernaryAndPriority) {
  Table t("t", {KeySpec{{"tcp", "dport"}, MatchKind::kTernary}});
  TableEntry any;
  any.keys = {KeyMatch::wildcard()};
  any.priority = 1;
  any.action = "any";
  t.add_entry(any);
  TableEntry https;
  https.keys = {KeyMatch::ternary(443, 0xffff)};
  https.priority = 10;
  https.action = "https";
  t.add_entry(https);
  EXPECT_EQ(lookup(t, make_tcp_packet({}))->action, "https");
  PacketSpec other;
  other.dport = 8080;
  EXPECT_EQ(lookup(t, make_tcp_packet(other))->action, "any");
}

TEST(Table, MetadataKeys) {
  Table t("t", {KeySpec{{"meta", "ingress_port"}, MatchKind::kExact}});
  TableEntry e;
  e.keys = {KeyMatch::exact(4)};
  e.action = "hit";
  t.add_entry(e);
  PacketSpec spec;
  spec.ingress_port = 4;
  EXPECT_NE(lookup(t, make_tcp_packet(spec)), nullptr);
  spec.ingress_port = 5;
  EXPECT_EQ(lookup(t, make_tcp_packet(spec)), nullptr);
}

// A key on a header the packet lacks matches no entry, even a wildcard
// one: the pipeline takes the default action.
TEST(Table, MissingHeaderNeverMatches) {
  auto prog = std::make_shared<DataplaneProgram>("p", "v1", standard_parser());
  prog->add_action(stdaction::forward());
  Table& t = prog->add_table("t", {KeySpec{{"tcp", "dport"}, MatchKind::kTernary}});
  TableEntry e;
  e.keys = {KeyMatch::wildcard()};
  e.action = "forward";
  e.action_params = {7};
  t.add_entry(e);
  t.set_default("forward", {1});
  PisaSwitch sw(prog);
  const HeaderSpec eth = stdhdr::ethernet();
  RawPacket raw;
  raw.data = pack_header(eth, {1, 2, 0x0806});
  const auto out = sw.process(raw);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->port, 1u);
  EXPECT_EQ(sw.stats().table_hits, 0u);
  EXPECT_EQ(sw.process(make_tcp_packet({}))->port, 7u);
}

TEST(Table, EntryKeyCountValidated) {
  Table t("t", {KeySpec{{"tcp", "dport"}, MatchKind::kExact}});
  TableEntry e;
  e.keys = {KeyMatch::exact(1), KeyMatch::exact(2)};
  EXPECT_THROW((void)t.add_entry(e), std::invalid_argument);
}

TEST(Table, ContentDigestTracksEntries) {
  Table t("t", {KeySpec{{"tcp", "dport"}, MatchKind::kExact}});
  const crypto::Digest d0 = t.content_digest();
  TableEntry e;
  e.keys = {KeyMatch::exact(443)};
  e.action = "hit";
  t.add_entry(e);
  const crypto::Digest d1 = t.content_digest();
  EXPECT_NE(d0, d1);
  EXPECT_EQ(t.content_digest(), d1);  // stable
}

// --- actions / registers --------------------------------------------------------

TEST(Action, ForwardSetsEgress) {
  PisaSwitch sw(one_action(stdaction::forward(), {7}));
  const RawPacket raw = make_tcp_packet({});
  ParsedPacket pkt = sw.parse(raw);
  sw.run_pipeline(pkt);
  EXPECT_EQ(pkt.meta.egress_port, 7u);
}

TEST(Action, DropSetsFlag) {
  PisaSwitch sw(one_action(stdaction::drop(), {}));
  const RawPacket raw = make_tcp_packet({});
  ParsedPacket pkt = sw.parse(raw);
  sw.run_pipeline(pkt);
  EXPECT_TRUE(pkt.meta.drop);
  EXPECT_FALSE(pkt.faulted());
}

TEST(Action, SetFieldMasksToWidth) {
  PisaSwitch sw(one_action(stdaction::set_field("ipv4.ttl"), {0x1ff}));
  const RawPacket raw = make_tcp_packet({});
  ParsedPacket pkt = sw.parse(raw);
  sw.run_pipeline(pkt);
  EXPECT_EQ(pkt.get("ipv4.ttl"), 0xffu);  // 8-bit field
  const auto out = sw.deparse(pkt);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->data[14 + 4], 0xffu);  // ipv4.ttl on the wire
}

TEST(Action, MissingParamFaults) {
  PisaSwitch sw(one_action(stdaction::forward(), {}));
  EXPECT_FALSE(sw.process(make_tcp_packet({})).has_value());
  EXPECT_EQ(sw.stats().pipeline_faults, 1u);
  EXPECT_EQ(sw.stats().packets_dropped, 0u);
}

TEST(Action, RegisterOpsNeedDeclaredRegister) {
  ActionDef a;
  a.name = "regop";
  Op op;
  op.kind = OpKind::kRegWrite;
  op.reg = "r";
  op.a = Operand::imm(0);
  op.b = Operand::imm(5);
  a.ops.push_back(op);
  EXPECT_THROW((void)PisaSwitch(one_action(a, {})), std::invalid_argument);
  auto prog = one_action(a, {});
  prog->declare_register("r", 4);
  PisaSwitch sw(prog);
  (void)sw.process(make_tcp_packet({}));
  EXPECT_EQ(sw.registers().read("r", 0), 5u);
}

TEST(Registers, BoundsChecked) {
  RegisterFile regs;
  regs.declare("r", 2);
  EXPECT_THROW((void)regs.read("r", 2), std::out_of_range);
  EXPECT_THROW(regs.write("missing", 0, 1), std::out_of_range);
  EXPECT_EQ(regs.size("r"), 2u);
}

TEST(Registers, StateDigestTracksWrites) {
  RegisterFile regs;
  regs.declare("r", 4);
  const crypto::Digest d0 = regs.state_digest();
  regs.write("r", 1, 42);
  EXPECT_NE(regs.state_digest(), d0);
  EXPECT_EQ(regs.write_count(), 1u);
}

// --- the lowered form: load-time rejection and pipeline faults ------------------

// A program whose default action writes tcp.dport: every frame without a
// TCP header faults.
std::shared_ptr<DataplaneProgram> dport_rewriter() {
  auto prog = std::make_shared<DataplaneProgram>("rw", "v1", standard_parser());
  prog->add_action(stdaction::set_field("tcp.dport"));
  prog->add_table("t", {}).set_default("set_tcp.dport", {8080});
  return prog;
}

RawPacket eth_only_frame() {
  RawPacket raw;
  raw.data = pack_header(stdhdr::ethernet(), {1, 2, 0x0806});  // 14 bytes
  return raw;
}

TEST(PipelineFault, AbsentHeaderWriteDropsAndCounts) {
  PisaSwitch sw(dport_rewriter());
  const RawPacket eth = eth_only_frame();
  ParsedPacket pkt = sw.parse(eth);
  sw.run_pipeline(pkt);  // must not throw
  EXPECT_TRUE(pkt.faulted());
  EXPECT_TRUE(pkt.meta.drop);
  EXPECT_FALSE(sw.deparse(pkt).has_value());
  EXPECT_EQ(sw.stats().pipeline_faults, 1u);
  EXPECT_EQ(sw.stats().packets_dropped, 0u);

  // TCP traffic takes the rewrite, on the wire too.
  const auto out = sw.process(make_tcp_packet({}));
  ASSERT_TRUE(out.has_value());
  // tcp.dport: after eth (14 bytes) and the simplified ipv4 (16 bytes).
  EXPECT_EQ((out->data[14 + 16 + 2] << 8) | out->data[14 + 16 + 3], 8080);
  EXPECT_FALSE(sw.process(eth).has_value());
  const SwitchStats& st = sw.stats();
  EXPECT_EQ(st.pipeline_faults, 2u);
  EXPECT_EQ(st.packets_in, st.packets_out + st.packets_dropped +
                               st.parse_errors + st.pipeline_faults);
}

TEST(PipelineFault, RegisterIndexOutOfRangeKeepsEarlierWrites) {
  ActionDef a;
  a.name = "two_writes";
  a.param_count = 2;
  for (std::size_t p : {0, 1}) {
    Op op;
    op.kind = OpKind::kRegWrite;
    op.reg = "r";
    op.a = Operand::param(p);
    op.b = Operand::imm(7);
    a.ops.push_back(op);
  }
  auto prog = one_action(a, {1, 4});  // r[1] := 7, then r[4]: out of range
  prog->declare_register("r", 4);
  PisaSwitch sw(prog);
  EXPECT_FALSE(sw.process(make_tcp_packet({})).has_value());
  EXPECT_EQ(sw.stats().pipeline_faults, 1u);
  EXPECT_EQ(sw.registers().read("r", 1), 7u);  // ops run in order
}

TEST(PipelineFault, EntryAddedBehindTheCheckFaults) {
  // Table::add_entry itself does not validate; an undeclared action that
  // reaches the pipeline that way faults the packet instead of throwing.
  auto prog = make_router();
  PisaSwitch sw(prog);
  TableEntry e;
  e.keys = {KeyMatch::lpm(0x0a000200, 24)};
  e.priority = 1;
  e.action = "no_such_action";
  prog->table("route")->add_entry(e);
  EXPECT_FALSE(sw.process(make_tcp_packet({})).has_value());
  EXPECT_EQ(sw.stats().pipeline_faults, 1u);
  EXPECT_EQ(sw.stats().table_hits, 1u);
}

TEST(Lowering, RejectsUndeclaredDefaultAction) {
  auto prog = make_router();
  prog->table("route")->set_default("no_such_action");
  EXPECT_THROW((void)PisaSwitch(prog), std::invalid_argument);
}

TEST(Lowering, RejectsUndeclaredEntryAction) {
  auto prog = make_router();
  TableEntry e;
  e.keys = {KeyMatch::lpm(0xC0A80000, 16)};
  e.action = "no_such_action";
  prog->table("route")->add_entry(e);
  EXPECT_THROW((void)PisaSwitch(prog), std::invalid_argument);
}

TEST(Lowering, RejectsUnknownKeyHeader) {
  auto prog = make_router();
  prog->add_table("vlans", {KeySpec{{"vlan", "vid"}, MatchKind::kExact}});
  EXPECT_THROW((void)PisaSwitch(prog), std::invalid_argument);
}

TEST(Lowering, RejectsUnknownKeyField) {
  auto prog = make_router();
  prog->add_table("ttl", {KeySpec{{"ipv4", "hops"}, MatchKind::kExact}});
  EXPECT_THROW((void)PisaSwitch(prog), std::invalid_argument);
}

TEST(Lowering, RejectsUnknownMetaField) {
  auto prog = make_router();
  prog->add_table("color", {KeySpec{{"meta", "color"}, MatchKind::kExact}});
  EXPECT_THROW((void)PisaSwitch(prog), std::invalid_argument);
}

TEST(Lowering, RejectsOpOnUnknownHeader) {
  auto prog = make_router();
  prog->add_action(stdaction::set_field("udp.dport"));  // no udp in schema
  EXPECT_THROW((void)PisaSwitch(prog), std::invalid_argument);
}

TEST(Lowering, RejectsOpOnUnknownField) {
  auto prog = make_router();
  prog->add_action(stdaction::set_field("tcp.urgent"));
  EXPECT_THROW((void)PisaSwitch(prog), std::invalid_argument);
}

TEST(Lowering, RejectsOpOnUnknownRegister) {
  auto prog = make_monitor();
  ActionDef a;
  a.name = "bad_read";
  Op op;
  op.kind = OpKind::kRegReadToMeta;
  op.reg = "no_such_register";
  a.ops.push_back(op);
  prog->add_action(a);
  EXPECT_THROW((void)PisaSwitch(prog), std::invalid_argument);
}

TEST(Lowering, RejectedLoadLeavesTheSwitchRunning) {
  PisaSwitch sw(make_router());
  auto bad = make_router("v2");
  bad->table("route")->set_default("no_such_action");
  EXPECT_THROW(sw.load_program(bad), std::invalid_argument);
  EXPECT_EQ(sw.program().version(), "v1");
  PacketSpec spec;
  spec.ip_dst = 0x0a000305;
  EXPECT_EQ(sw.process(make_tcp_packet(spec))->port, 3u);
}

TEST(Lowering, OncePerProgramInstance) {
  auto prog = make_router();
  const auto first = prog->lowered();
  PisaSwitch a(prog);
  PisaSwitch b(prog);
  EXPECT_EQ(prog->lowered(), first);  // shared, not rebuilt per switch
  prog->add_action(stdaction::noop());
  EXPECT_NE(prog->lowered(), first);  // structural change: lowered again
}

TEST(Lowering, DigestsAreOverTheSymbolicForm) {
  auto prog = make_firewall();
  const crypto::Digest program = prog->program_digest();
  const crypto::Digest tables = prog->tables_digest();
  PisaSwitch sw(prog);
  (void)sw.process(make_tcp_packet({}));
  EXPECT_EQ(prog->program_digest(), program);
  EXPECT_EQ(prog->tables_digest(), tables);
}

// --- programs and the switch --------------------------------------------------

TEST(Program, DigestStableAndVersionSensitive) {
  EXPECT_EQ(make_router("v1")->program_digest(),
            make_router("v1")->program_digest());
  EXPECT_NE(make_router("v1")->program_digest(),
            make_router("v2")->program_digest());
  EXPECT_NE(make_router("v1")->program_digest(),
            make_firewall("v1")->program_digest());
}

TEST(Program, TableEntriesAffectTablesDigestOnly) {
  auto p1 = make_router();
  auto p2 = make_router();
  TableEntry e;
  e.keys = {KeyMatch::lpm(0xC0A80000, 16)};
  e.action = "forward";
  e.action_params = {3};
  p2->table("route")->add_entry(e);
  EXPECT_EQ(p1->program_digest(), p2->program_digest());
  EXPECT_NE(p1->tables_digest(), p2->tables_digest());
}

TEST(Switch, RouterForwardsBySubnet) {
  PisaSwitch sw(make_router());
  PacketSpec spec;
  spec.ip_dst = 0x0a000305;  // 10.0.3.5 -> port 3
  const auto out = sw.process(make_tcp_packet(spec));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->port, 3u);
  EXPECT_EQ(sw.stats().packets_out, 1u);
}

TEST(Switch, RouterDropsUnknownSubnet) {
  PisaSwitch sw(make_router());
  PacketSpec spec;
  spec.ip_dst = 0xC0A80001;  // 192.168.0.1: no route
  EXPECT_FALSE(sw.process(make_tcp_packet(spec)).has_value());
  EXPECT_EQ(sw.stats().packets_dropped, 1u);
}

TEST(Switch, FirewallBlocksDisallowedPort) {
  PisaSwitch sw(make_firewall());
  PacketSpec ok;
  ok.ip_dst = 0x0a000203;
  ok.dport = 443;
  EXPECT_TRUE(sw.process(make_tcp_packet(ok)).has_value());
  PacketSpec bad = ok;
  bad.dport = 9999;
  bad.ip_src = 0xC0A80001;  // external source
  EXPECT_FALSE(sw.process(make_tcp_packet(bad)).has_value());
}

TEST(Switch, AclDropsDenyListedPorts) {
  PisaSwitch sw(make_acl());
  PacketSpec bad;
  bad.ip_dst = 0x0a000203;
  bad.dport = 6667;  // IRC: deny-listed
  EXPECT_FALSE(sw.process(make_tcp_packet(bad)).has_value());
  PacketSpec ok = bad;
  ok.dport = 443;
  EXPECT_TRUE(sw.process(make_tcp_packet(ok)).has_value());
}

TEST(Switch, ParseErrorCounted) {
  PisaSwitch sw(make_router());
  RawPacket junk;
  junk.data = {1, 2, 3};
  EXPECT_FALSE(sw.process(junk).has_value());
  EXPECT_EQ(sw.stats().parse_errors, 1u);
}

TEST(Switch, LoadProgramRedeclaresRegisters) {
  PisaSwitch sw(make_monitor());
  EXPECT_TRUE(sw.registers().has("port_counts"));
  sw.load_program(make_router());
  EXPECT_FALSE(sw.registers().has("port_counts"));
}

// The UC1 stealth property: the rogue router forwards non-target traffic
// exactly like the honest router (the Athens attack went unnoticed), yet
// its program digest differs — which is precisely what RA detects.
TEST(RogueRouter, StealthOnNonTargetTraffic) {
  PisaSwitch honest(make_router("v1"));
  PisaSwitch rogue(make_rogue_router("v1"));
  for (std::uint64_t dst : {0x0a000101ULL, 0x0a000202ULL, 0x0a000404ULL}) {
    PacketSpec spec;
    spec.ip_dst = static_cast<std::uint32_t>(dst);
    const auto a = honest.process(make_tcp_packet(spec));
    const auto b = rogue.process(make_tcp_packet(spec));
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(a->port, b->port);
    EXPECT_EQ(a->data, b->data);
  }
}

TEST(RogueRouter, MarksTargetTraffic) {
  PisaSwitch rogue(make_rogue_router("v1"));
  PacketSpec spec;
  spec.ip_dst = 0x0a000105;  // on the target list
  const RawPacket raw = make_tcp_packet(spec);
  ParsedPacket pkt = rogue.parse(raw);
  rogue.run_pipeline(pkt);
  EXPECT_EQ(pkt.meta.user1, 1u);  // intercept mark
}

TEST(RogueRouter, DigestBetraysTheSwap) {
  EXPECT_NE(make_router("v1")->program_digest(),
            make_rogue_router("v1")->program_digest());
  // Even claiming the same name+version does not help the attacker.
  EXPECT_EQ(make_rogue_router("v1")->name(), make_router("v1")->name());
  EXPECT_EQ(make_rogue_router("v1")->version(), make_router("v1")->version());
}

TEST(Monitor, CountsViaRegisters) {
  PisaSwitch sw(make_monitor());
  PacketSpec spec;
  spec.dport = 443;
  (void)sw.process(make_tcp_packet(spec));
  EXPECT_GT(sw.registers().write_count(), 0u);
}

}  // namespace
}  // namespace pera::dataplane
