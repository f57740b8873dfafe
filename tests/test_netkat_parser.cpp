// Tests for textual NetKAT: parsing, semantics of parsed policies, and
// writing a refinement spec as text against a P4-mini program.
#include <gtest/gtest.h>

#include <string>

#include "core/netkat_bridge.h"
#include "dataplane/builder.h"
#include "dataplane/p4mini.h"
#include "netkat/eval.h"
#include "netkat/parser.h"

namespace pera::netkat {
namespace {

Packet pkt(std::uint64_t sw, std::uint64_t pt, std::uint64_t dst = 0) {
  Packet p;
  p.set("sw", sw);
  p.set("pt", pt);
  p.set("dst", dst);
  return p;
}

TEST(NetkatParser, Atoms) {
  EXPECT_TRUE(eval(parse_policy("id"), pkt(1, 1)).size() == 1);
  EXPECT_TRUE(eval(parse_policy("drop"), pkt(1, 1)).empty());
  const PacketSet out = eval(parse_policy("pt := 7"), pkt(1, 1));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.begin()->get("pt"), 7u);
}

TEST(NetkatParser, FilterTests) {
  EXPECT_EQ(eval(parse_policy("filter sw = 1"), pkt(1, 0)).size(), 1u);
  EXPECT_TRUE(eval(parse_policy("filter sw = 2"), pkt(1, 0)).empty());
  EXPECT_EQ(eval(parse_policy("filter 1"), pkt(1, 0)).size(), 1u);
  EXPECT_TRUE(eval(parse_policy("filter 0"), pkt(1, 0)).empty());
}

TEST(NetkatParser, CompoundPredicates) {
  const PolicyPtr p =
      parse_policy("filter (sw = 1 & !(pt = 9) + dst = 5)");
  EXPECT_EQ(eval(p, pkt(1, 0)).size(), 1u);   // sw=1, pt!=9
  EXPECT_TRUE(eval(p, pkt(1, 9)).empty());    // pt=9 kills the conjunct
  EXPECT_EQ(eval(p, pkt(2, 9, 5)).size(), 1u);  // dst=5 rescues via +
}

TEST(NetkatParser, MaskedTests) {
  // Explicit mask form.
  const PolicyPtr p = parse_policy("filter dst & 0xff00 = 0x1200");
  EXPECT_EQ(eval(p, pkt(0, 0, 0x1234)).size(), 1u);
  EXPECT_TRUE(eval(p, pkt(0, 0, 0x2234)).empty());
}

TEST(NetkatParser, UnionSeqStarPrecedence) {
  // a ; b + c  parses as (a;b) + c.
  const PolicyPtr p = parse_policy("pt := 1 ; sw := 2 + pt := 3");
  const PacketSet out = eval(p, pkt(9, 9));
  ASSERT_EQ(out.size(), 2u);
  bool saw_seq = false;
  bool saw_alt = false;
  for (const auto& q : out) {
    if (q.get("pt") == 1 && q.get("sw") == 2) saw_seq = true;
    if (q.get("pt") == 3 && q.get("sw") == 9) saw_alt = true;
  }
  EXPECT_TRUE(saw_seq);
  EXPECT_TRUE(saw_alt);
}

TEST(NetkatParser, StarFixpoint) {
  const PolicyPtr p = parse_policy(
      "(filter sw = 0 ; sw := 1 + filter sw = 1 ; sw := 2)*");
  EXPECT_EQ(eval(p, pkt(0, 0)).size(), 3u);  // sw = 0,1,2
}

TEST(NetkatParser, DupParses) {
  const HistorySet out = eval_hist(parse_policy("dup ; sw := 5"), pkt(1, 0));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.begin()->size(), 2u);
}

TEST(NetkatParser, ParenthesizedPolicies) {
  const PolicyPtr p = parse_policy("(pt := 1 + pt := 2) ; filter pt = 1");
  EXPECT_EQ(eval(p, pkt(0, 0)).size(), 1u);
}

TEST(NetkatParser, CommentsIgnored) {
  const PolicyPtr p = parse_policy("pt := 1  # set the port\n + drop");
  EXPECT_EQ(eval(p, pkt(0, 0)).size(), 1u);
}

TEST(NetkatParser, Errors) {
  EXPECT_THROW((void)parse_policy(""), NetkatParseError);
  EXPECT_THROW((void)parse_policy("pt :="), NetkatParseError);
  EXPECT_THROW((void)parse_policy("pt := 1 extra"), NetkatParseError);
  EXPECT_THROW((void)parse_policy("filter sw = "), NetkatParseError);
  EXPECT_THROW((void)parse_predicate("sw = 1/99"), NetkatParseError);
  EXPECT_THROW((void)parse_policy("filter 3"), NetkatParseError);
  EXPECT_THROW((void)parse_policy("@"), NetkatParseError);
}

TEST(NetkatParser, DeepNestingIsAnErrorNotAStackOverflow) {
  const auto nested = [](std::size_t depth, const std::string& open,
                         const std::string& inner, const std::string& close) {
    std::string s;
    for (std::size_t i = 0; i < depth; ++i) s += open;
    s += inner;
    for (std::size_t i = 0; i < depth; ++i) s += close;
    return s;
  };
  // Deep enough to overflow the stack, short of the token cap below.
  EXPECT_THROW((void)parse_policy(nested(30000, "(", "id", ")")),
               NetkatParseError);
  EXPECT_THROW((void)parse_predicate(nested(30000, "!", "sw = 1", "")),
               NetkatParseError);
  EXPECT_THROW((void)parse_predicate(nested(30000, "(", "sw = 1", ")")),
               NetkatParseError);
  // Chains are capped by length: their trees nest one level per term.
  std::string chain = "id";
  for (int i = 0; i < 40000; ++i) chain += " ; id";
  EXPECT_THROW((void)parse_policy(chain), NetkatParseError);
  EXPECT_THROW((void)parse_policy("id" + std::string(70000, '*')),
               NetkatParseError);
  // 1024 levels of '(' or '!' still parse.
  EXPECT_NO_THROW((void)parse_policy(nested(1024, "(", "id", ")")));
  EXPECT_NO_THROW(
      (void)parse_policy("filter " + nested(1024, "!", "sw = 1", "")));
}

TEST(NetkatParser, PredicateEntryPoint) {
  const PredPtr p = parse_predicate("sw = 1 + sw = 2");
  EXPECT_TRUE(eval(p, pkt(1, 0)));
  EXPECT_TRUE(eval(p, pkt(2, 0)));
  EXPECT_FALSE(eval(p, pkt(3, 0)));
}

// The payoff: a textual spec checked against a textual program.
TEST(NetkatParser, TextualSpecRefinesTextualProgram) {
  // Spec: the router may emit 10.0.x.0/24 traffic only on port x (subset
  // shown for x=1..3) — everything else must be dropped (refinement
  // allows dropping).
  const PolicyPtr spec = parse_policy(R"(
      filter (valid.ipv4 = 1 & ipv4.dst & 0xffffff00 = 0x0a000100) ; pt := 1
    + filter (valid.ipv4 = 1 & ipv4.dst & 0xffffff00 = 0x0a000200) ; pt := 2
    + filter (valid.ipv4 = 1 & ipv4.dst & 0xffffff00 = 0x0a000300) ; pt := 3
    + filter (valid.ipv4 = 1 & ipv4.dst & 0xffffff00 = 0x0a000400) ; pt := 4
    + filter (valid.ipv4 = 1 & ipv4.dst & 0xffffff00 = 0x0a000500) ; pt := 5
    + filter (valid.ipv4 = 1 & ipv4.dst & 0xffffff00 = 0x0a000600) ; pt := 6
    + filter (valid.ipv4 = 1 & ipv4.dst & 0xffffff00 = 0x0a000700) ; pt := 7
    + filter (valid.ipv4 = 1 & ipv4.dst & 0xffffff00 = 0x0a000800) ; pt := 8
  )");

  const auto program = dataplane::compile_p4mini(dataplane::p4src::router_v1());
  std::vector<dataplane::RawPacket> universe;
  for (std::uint32_t dst : {0x0a000105u, 0x0a000342u, 0x0a000799u,
                            0x0a001001u, 0xC0A80001u}) {
    dataplane::PacketSpec spec_pkt;
    spec_pkt.ip_dst = dst;
    universe.push_back(dataplane::make_tcp_packet(spec_pkt));
  }
  EXPECT_TRUE(core::refines(program, spec, universe));

  // A broken router violating the spec is caught.
  auto bad = dataplane::compile_p4mini(dataplane::p4src::router_v1());
  bad->table("route")->entry_mut(0).action_params = {5};  // 10.0.1/24 -> 5!
  EXPECT_FALSE(core::refines(bad, spec, universe));
}

}  // namespace
}  // namespace pera::netkat
