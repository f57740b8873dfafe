// Tests for the P4-mini frontend: parsing, error reporting, and — via the
// NetKAT bridge — behavioural equivalence between the textual programs and
// the builder-constructed ones.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "core/netkat_bridge.h"
#include "crypto/drbg.h"
#include "dataplane/builder.h"
#include "dataplane/p4mini.h"

namespace pera::dataplane {
namespace {

std::vector<RawPacket> sample_packets(std::uint64_t seed, std::size_t n) {
  crypto::Drbg rng(seed);
  std::vector<RawPacket> out;
  for (std::size_t i = 0; i < n; ++i) {
    PacketSpec spec;
    spec.ip_src = static_cast<std::uint32_t>(0x0a000000 | rng.uniform(1 << 16));
    spec.ip_dst = static_cast<std::uint32_t>(
        0x0a000000 | (rng.uniform(10) << 8) | rng.uniform(256));
    const std::uint64_t ports[] = {443, 80, 22, 25, 6667, 31337, 1234};
    spec.dport = static_cast<std::uint16_t>(ports[rng.uniform(7)]);
    out.push_back(make_tcp_packet(spec));
  }
  return out;
}

// Two programs behave the same on a packet when both drop it or both
// forward to the same port with the same bytes.
bool same_behavior(const std::shared_ptr<DataplaneProgram>& a,
                   const std::shared_ptr<DataplaneProgram>& b,
                   const RawPacket& raw) {
  PisaSwitch sa(a);
  PisaSwitch sb(b);
  const auto ra = sa.process(raw);
  const auto rb = sb.process(raw);
  if (ra.has_value() != rb.has_value()) return false;
  if (!ra) return true;
  return ra->port == rb->port && ra->data == rb->data;
}

// --- parsing ----------------------------------------------------------------

TEST(P4Mini, CompilesRouter) {
  const auto prog = compile_p4mini(p4src::router_v1());
  EXPECT_EQ(prog->name(), "router");
  EXPECT_EQ(prog->version(), "v1");
  ASSERT_EQ(prog->tables().size(), 1u);
  EXPECT_EQ(prog->tables()[0]->name(), "route");
  EXPECT_EQ(prog->tables()[0]->entry_count(), 8u);
  EXPECT_NE(prog->action("fwd"), nullptr);
}

TEST(P4Mini, CompilesAllReferenceSources) {
  for (const char* src : {p4src::router_v1(), p4src::firewall_v5(),
                          p4src::acl_v3(), p4src::rogue_router_v1()}) {
    EXPECT_NO_THROW((void)compile_p4mini(src));
  }
}

TEST(P4Mini, KeyWidthInferredFromHeader) {
  const auto prog = compile_p4mini(p4src::router_v1());
  EXPECT_EQ(prog->tables()[0]->keys()[0].width, 32u);
}

TEST(P4Mini, RegistersAndRegOps) {
  const auto prog = compile_p4mini(R"(
program counter v1;
header eth { dst:48; src:48; ethertype:16; }
parser { start: extract eth; }
register hits[64];
action count(slot, val) { reg_write(hits, slot, val); set_egress(1); }
table t {
  key { eth.ethertype: exact; }
  entry 0x0800 -> count(3, 7);
}
)");
  PisaSwitch sw(prog);
  RawPacket raw;
  raw.data = pack_header(stdhdr::ethernet(), {1, 2, 0x0800});
  const auto out = sw.process(raw);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(sw.registers().read("hits", 3), 7u);
}

TEST(P4Mini, ProgramDigestStableAcrossCompiles) {
  EXPECT_EQ(compile_p4mini(p4src::firewall_v5())->program_digest(),
            compile_p4mini(p4src::firewall_v5())->program_digest());
  EXPECT_NE(compile_p4mini(p4src::firewall_v5())->program_digest(),
            compile_p4mini(p4src::acl_v3())->program_digest());
}

TEST(P4Mini, RogueSourceDigestDiffersFromHonest) {
  // The textual rogue program claims the same name/version but its digest
  // still betrays it — the UC1 property, now at the source level.
  const auto honest = compile_p4mini(p4src::router_v1());
  const auto rogue = compile_p4mini(p4src::rogue_router_v1());
  EXPECT_EQ(honest->name(), rogue->name());
  EXPECT_EQ(honest->version(), rogue->version());
  EXPECT_NE(honest->program_digest(), rogue->program_digest());
}

// --- error reporting --------------------------------------------------------

TEST(P4Mini, ErrorsCarryLineNumbers) {
  try {
    (void)compile_p4mini("program x v1;\nheader h { f:99; }\n");
    FAIL() << "expected P4MiniError";
  } catch (const P4MiniError& e) {
    EXPECT_EQ(e.line(), 2u);
    EXPECT_NE(std::string(e.what()).find("1..64"), std::string::npos);
  }
}

TEST(P4Mini, RejectsUndeclaredHeaderInParser) {
  EXPECT_THROW((void)compile_p4mini(
                   "program x v1;\nparser { start: extract ghost; }\n"),
               P4MiniError);
}

TEST(P4Mini, RejectsUndeclaredActionInEntry) {
  EXPECT_THROW((void)compile_p4mini(R"(
program x v1;
header eth { dst:48; src:48; ethertype:16; }
parser { start: extract eth; }
table t { key { eth.ethertype: exact; } entry 5 -> ghost(); }
)"),
               P4MiniError);
}

TEST(P4Mini, RejectsMisalignedHeader) {
  EXPECT_THROW(
      (void)compile_p4mini("program x v1;\nheader h { f:4; }\nparser { "
                           "start: extract h; }\n"),
      P4MiniError);
}

TEST(P4Mini, RejectsEntryKeyCountMismatch) {
  EXPECT_THROW((void)compile_p4mini(R"(
program x v1;
header eth { dst:48; src:48; ethertype:16; }
parser { start: extract eth; }
action a() { drop; }
table t { key { eth.dst: exact; eth.src: exact; } entry 5 -> a(); }
)"),
               P4MiniError);
}

TEST(P4Mini, RejectsMissingParser) {
  EXPECT_THROW((void)compile_p4mini("program x v1;\n"), P4MiniError);
}

TEST(P4Mini, RejectsGarbageToken) {
  EXPECT_THROW((void)compile_p4mini("program x v1; @"), P4MiniError);
}

TEST(P4Mini, RejectsUnknownStatement) {
  EXPECT_THROW((void)compile_p4mini(R"(
program x v1;
header eth { dst:48; src:48; ethertype:16; }
parser { start: extract eth; }
action a() { teleport(1); }
)"),
               P4MiniError);
}

TEST(P4Mini, HexAndDecimalLiterals) {
  const auto prog = compile_p4mini(R"(
program x v1;
header eth { dst:48; src:48; ethertype:16; }
parser { start: extract eth; }
action a() { set_egress(0x10); }
table t { key { eth.ethertype: exact; } entry 2048 -> a(); }
)");
  PisaSwitch sw(prog);
  RawPacket raw;
  raw.data = pack_header(stdhdr::ethernet(), {1, 2, 2048});
  const auto out = sw.process(raw);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->port, 16u);
}

// Range checks run on the full 64-bit value: 2^32 + 8 bits used to pass the
// 1..64 width check as 8, a prefix length or priority of 2^32 + 1 became 1,
// and a 21-digit literal silently wrapped.
TEST(P4Mini, RejectsOutOfRangeWidthsAndLiterals) {
  const auto with_action = [](const std::string& body) {
    return "program x v1;\nheader h { f:8; }\nparser { start: extract h; }\n"
           "action a() { " + body + " }\n";
  };
  EXPECT_THROW((void)compile_p4mini("program x v1;\n"
                                    "header h { f:4294967304; }\n"
                                    "parser { start: extract h; }\n"),
               P4MiniError);
  EXPECT_THROW((void)compile_p4mini(
                   with_action("set_egress(99999999999999999999999);")),
               P4MiniError);
  EXPECT_THROW((void)compile_p4mini(
                   with_action("set_egress(0x10000000000000000);")),
               P4MiniError);
  EXPECT_NO_THROW((void)compile_p4mini(
      with_action("set_egress(18446744073709551615); "
                  "set_meta0(0xffffffffffffffff);")));
  const auto with_entry = [](const std::string& key, const std::string& entry) {
    return "program x v1;\nheader h { f:8; }\nparser { start: extract h; }\n"
           "action a() { drop; }\ntable t { key { h.f: " + key + "; } entry " +
           entry + " -> a(); }\n";
  };
  EXPECT_NO_THROW((void)compile_p4mini(
      with_entry("lpm/64", "5/64 prio 4294967295")));
  EXPECT_THROW((void)compile_p4mini(with_entry("lpm", "5/4294967297")),
               P4MiniError);
  EXPECT_THROW((void)compile_p4mini(with_entry("lpm", "5/8 prio 4294967297")),
               P4MiniError);
  EXPECT_THROW((void)compile_p4mini(with_entry("lpm/4294967360", "5/8")),
               P4MiniError);
}

// The fuzz seed corpus is the built-in sources, byte for byte.
TEST(P4Mini, FixtureSourcesMatchBuiltInPrograms) {
  const std::pair<const char*, const char*> files[] = {
      {"router_v1.p4", p4src::router_v1()},
      {"firewall_v5.p4", p4src::firewall_v5()},
      {"acl_v3.p4", p4src::acl_v3()},
      {"rogue_router_v1.p4", p4src::rogue_router_v1()}};
  for (const auto& [name, src] : files) {
    std::ifstream in(std::string(PERA_FIXTURES_DIR) + "/p4mini/" + name);
    ASSERT_TRUE(in) << name;
    std::ostringstream text;
    text << in.rdbuf();
    EXPECT_EQ(text.str(), src) << name;
  }
}

// --- behavioural equivalence with the builder programs -------------------------

class P4MiniEquiv : public ::testing::TestWithParam<int> {};

TEST_P(P4MiniEquiv, TextualAndBuilderProgramsAgree) {
  const int which = GetParam();
  std::shared_ptr<DataplaneProgram> text;
  std::shared_ptr<DataplaneProgram> built;
  switch (which) {
    case 0:
      text = compile_p4mini(p4src::router_v1());
      built = make_router("v1");
      break;
    case 1:
      text = compile_p4mini(p4src::firewall_v5());
      built = make_firewall("v5");
      break;
    case 2:
      text = compile_p4mini(p4src::acl_v3());
      built = make_acl("v3");
      break;
    default:
      text = compile_p4mini(p4src::rogue_router_v1());
      built = make_rogue_router("v1");
      break;
  }
  for (const auto& raw : sample_packets(901 + which, 120)) {
    EXPECT_TRUE(same_behavior(text, built, raw));
  }
}

INSTANTIATE_TEST_SUITE_P(Programs, P4MiniEquiv, ::testing::Range(0, 4));

TEST(P4Mini, CompiledProgramsPassTranslationValidation) {
  // The textual router also validates against its own NetKAT model.
  const auto prog = compile_p4mini(p4src::router_v1());
  for (const auto& raw : sample_packets(999, 80)) {
    EXPECT_TRUE(core::behaviors_agree(prog, raw));
  }
}

}  // namespace
}  // namespace pera::dataplane
