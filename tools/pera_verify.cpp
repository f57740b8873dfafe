// pera_verify — static policy verification CLI.
//
// Verifies a network-aware Copland policy against a topology and deployment
// model *before* compilation (checks V1-V9, see docs/VERIFY.md):
//
//   pera_verify policy.copland                        # against topo::isp()
//   pera_verify -e '*rp<n> : @edge1 [attest(Program) -> !] +<+ @Appraiser [appraise]'
//   pera_verify --topology chain:3 --bind client=client policy.copland
//   pera_verify --node Switch --node Appraiser:appraiser --link Switch-Appraiser ...
//   pera_verify --guard Ktest=false --json policy.copland
//   pera_verify --program nat --cadence prod.conf policy.copland   # V6-V9
//
// Exit status: 0 = policy verifies, 1 = verification errors (suppressed by
// --force), 2 = usage error.
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "copland/ast.h"
#include "copland/parser.h"
#include "crypto/keystore.h"
#include "ctrl/cadence.h"
#include "dataplane/builder.h"
#include "dataplane/nf.h"
#include "dataplane/p4mini.h"
#include "dataplane/program.h"
#include "nac/compiler.h"
#include "nac/detail.h"
#include "netkat/policy.h"
#include "netsim/topology.h"
#include "verify/coverage.h"
#include "verify/verifier.h"

namespace {

using pera::verify::DiagnosticEngine;
using pera::verify::VerifyModel;

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options] (POLICY_FILE | - | -e EXPR)\n"
      << "\n"
      << "Statically verify a network-aware Copland policy against a\n"
      << "topology and deployment model (checks V1-V5, docs/VERIFY.md).\n"
      << "\n"
      << "policy input:\n"
      << "  POLICY_FILE           read the policy from a file ('-' = stdin)\n"
      << "  -e EXPR               inline policy text\n"
      << "\n"
      << "deployment model:\n"
      << "  --topology NAME       isp (default) | datacenter | chain:N | none\n"
      << "  --node NAME[:KIND]    add a custom-topology node (KIND: host,\n"
      << "                        switch (default), appliance, appraiser);\n"
      << "                        any --node replaces the canned topology\n"
      << "  --link A-B            add a custom-topology link\n"
      << "  --bind VAR=PLACE      pin a forall place to a topology element\n"
      << "  --ra LIST             comma-separated RA-capable elements\n"
      << "                        (--ra '' = none; default: all switches\n"
      << "                        and appliances)\n"
      << "  --flow SRC-DST        expected flow for wildcard-hop coverage\n"
      << "  --guard NAME=SPEC     model a '|>' guard: true | false |\n"
      << "                        FIELD:VALUE (NetKAT test)\n"
      << "  --packet F=V[,F=V]    add a packet to the dead-guard universe\n"
      << "  --no-key PLACE        drop PLACE from the default keystore\n"
      << "  --no-keys             provision no keys at all\n"
      << "\n"
      << "attestation coverage (enables checks V6/V7/V9; V8 always runs):\n"
      << "  --program SPEC        dataplane program the policy must cover:\n"
      << "                        nat[:CAPACITY] | router | firewall | acl |\n"
      << "                        monitor | rogue | PATH.p4 (P4-mini source)\n"
      << "  --cadence FILE        re-attestation cadence config (key=value:\n"
      << "                        hardware/program/tables/state/packet=DUR,\n"
      << "                        levels=..., budget=DUR, or a workload:\n"
      << "                        pps/table_updates_per_second/...)\n"
      << "  --staleness-budget D  max tolerated mutation-to-observation\n"
      << "                        window (e.g. 500ms); overrides the config\n"
      << "  --measures P=LEVELS   detail levels a request parameter attests,\n"
      << "                        e.g. X=Program+Tables (repeatable)\n"
      << "\n"
      << "output and behaviour:\n"
      << "  --json                machine-readable diagnostics\n"
      << "  --force               report diagnostics but exit 0\n"
      << "  --compile             also run nac::compile under the verifier\n"
      << "  -h, --help            this message\n";
  return 2;
}

int fail(const std::string& msg) {
  std::cerr << "pera_verify: " << msg << "\n";
  return 2;
}

bool parse_u64(const std::string& s, std::uint64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  *out = std::strtoull(s.c_str(), &end, 0);
  return end != nullptr && *end == '\0';
}

std::optional<pera::netsim::NodeKind> parse_kind(const std::string& s) {
  using pera::netsim::NodeKind;
  if (s == "host") return NodeKind::kHost;
  if (s == "switch") return NodeKind::kSwitch;
  if (s == "appliance") return NodeKind::kAppliance;
  if (s == "appraiser") return NodeKind::kAppraiser;
  return std::nullopt;
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

struct Options {
  std::string policy_text;
  bool have_policy = false;

  std::string topology_name = "isp";
  std::vector<std::pair<std::string, pera::netsim::NodeKind>> custom_nodes;
  std::vector<std::pair<std::string, std::string>> custom_links;

  std::map<std::string, std::string> bindings;
  std::optional<std::set<std::string>> ra;
  std::vector<std::pair<std::string, std::string>> flows;
  std::map<std::string, pera::netkat::PredPtr> guards;
  std::vector<pera::netkat::Packet> packets;
  std::set<std::string> dropped_keys;
  bool no_keys = false;

  std::string program_spec;
  std::string cadence_file;
  std::optional<pera::netsim::SimTime> staleness_budget;
  std::map<std::string, pera::nac::DetailMask> measures;

  bool json = false;
  bool force = false;
  bool compile = false;
};

// Strict level-name parser for --measures (nac::detail_from_target maps
// unknown names to kProgram, which would silently hide a typo here).
bool parse_levels(const std::string& spec, pera::nac::DetailMask* out) {
  using pera::nac::EvidenceDetail;
  *out = 0;
  std::string cur;
  const auto flush = [&]() -> bool {
    if (cur.empty()) return true;
    if (cur == "Hardware") {
      *out |= static_cast<pera::nac::DetailMask>(EvidenceDetail::kHardware);
    } else if (cur == "Program") {
      *out |= static_cast<pera::nac::DetailMask>(EvidenceDetail::kProgram);
    } else if (cur == "Tables") {
      *out |= static_cast<pera::nac::DetailMask>(EvidenceDetail::kTables);
    } else if (cur == "State" || cur == "ProgState") {
      *out |= static_cast<pera::nac::DetailMask>(EvidenceDetail::kProgState);
    } else if (cur == "Packet") {
      *out |= static_cast<pera::nac::DetailMask>(EvidenceDetail::kPacket);
    } else {
      return false;
    }
    cur.clear();
    return true;
  };
  for (const char c : spec) {
    if (c == '+' || c == ',') {
      if (!flush()) return false;
    } else {
      cur.push_back(c);
    }
  }
  return flush() && *out != 0;
}

// Resolve --program SPEC into a live program. The returned holder keeps
// whatever owns the program (a StatefulNat for nat, a shared_ptr
// otherwise) alive for the duration of the analyses.
struct ProgramHolder {
  std::shared_ptr<pera::dataplane::DataplaneProgram> program;
  std::unique_ptr<pera::dataplane::StatefulNat> nat;

  [[nodiscard]] const pera::dataplane::DataplaneProgram* get() const {
    if (nat) return &nat->sw().program();
    return program.get();
  }
};

int build_program(const std::string& spec, ProgramHolder& holder) {
  using namespace pera::dataplane;
  try {
    if (spec == "nat" || spec.rfind("nat:", 0) == 0) {
      StatefulNat::Config cfg;
      if (spec.size() > 4) {
        std::uint64_t cap = 0;
        if (!parse_u64(spec.substr(4), &cap) || cap == 0) {
          return fail("--program nat:CAPACITY needs a positive capacity");
        }
        cfg.capacity = static_cast<std::size_t>(cap);
      }
      holder.nat = std::make_unique<StatefulNat>(cfg);
    } else if (spec == "router") {
      holder.program = make_router();
    } else if (spec == "firewall") {
      holder.program = make_firewall();
    } else if (spec == "acl") {
      holder.program = make_acl();
    } else if (spec == "monitor") {
      holder.program = make_monitor();
    } else if (spec == "rogue") {
      holder.program = make_rogue_router();
    } else if (spec.size() > 3 && spec.compare(spec.size() - 3, 3, ".p4") == 0) {
      std::ifstream in(spec);
      if (!in) return fail("--program: cannot open '" + spec + "'");
      std::ostringstream ss;
      ss << in.rdbuf();
      holder.program = compile_p4mini(ss.str());
    } else {
      return fail("--program: unknown program '" + spec +
                  "' (nat[:CAP], router, firewall, acl, monitor, rogue, "
                  "or a .p4 file)");
    }
  } catch (const P4MiniError& e) {
    return fail(std::string("--program: ") + e.what());
  } catch (const std::invalid_argument& e) {  // e.g. nat:CAPACITY too large
    return fail(std::string("--program: ") + e.what());
  }
  return 0;
}

// Returns 0 on success, 2 on usage error (with message already printed).
int parse_args(int argc, char** argv, Options& opt) {
  const auto value_of = [&](int& i, const std::string& flag,
                            std::string* out) -> bool {
    if (i + 1 >= argc) {
      fail("missing value for " + flag);
      return false;
    }
    *out = argv[++i];
    return true;
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    if (arg == "-h" || arg == "--help") {
      usage(argv[0]);
      return 2;
    } else if (arg == "-e") {
      if (!value_of(i, arg, &v)) return 2;
      opt.policy_text = v;
      opt.have_policy = true;
    } else if (arg == "--topology") {
      if (!value_of(i, arg, &v)) return 2;
      opt.topology_name = v;
    } else if (arg == "--node") {
      if (!value_of(i, arg, &v)) return 2;
      const auto colon = v.find(':');
      std::string name = v.substr(0, colon);
      auto kind = pera::netsim::NodeKind::kSwitch;
      if (colon != std::string::npos) {
        const auto parsed = parse_kind(v.substr(colon + 1));
        if (!parsed) return fail("--node: unknown kind in '" + v + "'");
        kind = *parsed;
      }
      if (name.empty()) return fail("--node: empty name");
      opt.custom_nodes.emplace_back(std::move(name), kind);
    } else if (arg == "--link") {
      if (!value_of(i, arg, &v)) return 2;
      const auto dash = v.find('-');
      if (dash == std::string::npos || dash == 0 || dash + 1 == v.size()) {
        return fail("--link: expected A-B, got '" + v + "'");
      }
      opt.custom_links.emplace_back(v.substr(0, dash), v.substr(dash + 1));
    } else if (arg == "--bind") {
      if (!value_of(i, arg, &v)) return 2;
      const auto eq = v.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == v.size()) {
        return fail("--bind: expected VAR=PLACE, got '" + v + "'");
      }
      opt.bindings[v.substr(0, eq)] = v.substr(eq + 1);
    } else if (arg == "--ra") {
      if (!value_of(i, arg, &v)) return 2;
      std::set<std::string> ra;
      for (const auto& e : split(v, ',')) {
        if (!e.empty()) ra.insert(e);
      }
      opt.ra = std::move(ra);
    } else if (arg == "--flow") {
      if (!value_of(i, arg, &v)) return 2;
      const auto dash = v.find('-');
      if (dash == std::string::npos || dash == 0 || dash + 1 == v.size()) {
        return fail("--flow: expected SRC-DST, got '" + v + "'");
      }
      opt.flows.emplace_back(v.substr(0, dash), v.substr(dash + 1));
    } else if (arg == "--guard") {
      if (!value_of(i, arg, &v)) return 2;
      const auto eq = v.find('=');
      if (eq == std::string::npos || eq == 0) {
        return fail("--guard: expected NAME=SPEC, got '" + v + "'");
      }
      const std::string name = v.substr(0, eq);
      const std::string spec = v.substr(eq + 1);
      using pera::netkat::Predicate;
      if (spec == "true") {
        opt.guards[name] = Predicate::tru();
      } else if (spec == "false") {
        opt.guards[name] = Predicate::fls();
      } else {
        const auto colon = spec.find(':');
        std::uint64_t value = 0;
        if (colon == std::string::npos || colon == 0 ||
            !parse_u64(spec.substr(colon + 1), &value)) {
          return fail("--guard: SPEC must be true, false or FIELD:VALUE, "
                      "got '" + v + "'");
        }
        opt.guards[name] = Predicate::test(spec.substr(0, colon), value);
      }
    } else if (arg == "--packet") {
      if (!value_of(i, arg, &v)) return 2;
      pera::netkat::Packet pkt;
      for (const auto& fv : split(v, ',')) {
        const auto eq = fv.find('=');
        std::uint64_t value = 0;
        if (eq == std::string::npos || eq == 0 ||
            !parse_u64(fv.substr(eq + 1), &value)) {
          return fail("--packet: expected F=V[,F=V], got '" + v + "'");
        }
        pkt.set(fv.substr(0, eq), value);
      }
      opt.packets.push_back(std::move(pkt));
    } else if (arg == "--program") {
      if (!value_of(i, arg, &v)) return 2;
      opt.program_spec = v;
    } else if (arg == "--cadence") {
      if (!value_of(i, arg, &v)) return 2;
      opt.cadence_file = v;
    } else if (arg == "--staleness-budget") {
      if (!value_of(i, arg, &v)) return 2;
      try {
        opt.staleness_budget = pera::ctrl::parse_duration(v);
      } catch (const std::invalid_argument& e) {
        return fail(std::string("--staleness-budget: ") + e.what());
      }
    } else if (arg == "--measures") {
      if (!value_of(i, arg, &v)) return 2;
      const auto eq = v.find('=');
      pera::nac::DetailMask mask = 0;
      if (eq == std::string::npos || eq == 0 ||
          !parse_levels(v.substr(eq + 1), &mask)) {
        return fail("--measures: expected PARAM=LEVEL[+LEVEL...] with "
                    "levels from Hardware, Program, Tables, State, Packet; "
                    "got '" + v + "'");
      }
      opt.measures[v.substr(0, eq)] |= mask;
    } else if (arg == "--no-key") {
      if (!value_of(i, arg, &v)) return 2;
      opt.dropped_keys.insert(v);
    } else if (arg == "--no-keys") {
      opt.no_keys = true;
    } else if (arg == "--json") {
      opt.json = true;
    } else if (arg == "--force") {
      opt.force = true;
    } else if (arg == "--compile") {
      opt.compile = true;
    } else if (arg == "-" && !opt.have_policy) {
      std::ostringstream ss;
      ss << std::cin.rdbuf();
      opt.policy_text = ss.str();
      opt.have_policy = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return fail("unknown option '" + arg + "' (try --help)");
    } else if (!opt.have_policy) {
      std::ifstream in(arg);
      if (!in) return fail("cannot open policy file '" + arg + "'");
      std::ostringstream ss;
      ss << in.rdbuf();
      opt.policy_text = ss.str();
      opt.have_policy = true;
    } else {
      return fail("more than one policy given (try --help)");
    }
  }
  if (!opt.have_policy) {
    usage(argv[0]);
    return 2;
  }
  return 0;
}

std::optional<pera::netsim::Topology> build_topology(const Options& opt,
                                                     int* err) {
  *err = 0;
  if (!opt.custom_nodes.empty()) {
    pera::netsim::Topology topo;
    for (const auto& [name, kind] : opt.custom_nodes) topo.add_node(name, kind);
    for (const auto& [a, b] : opt.custom_links) {
      if (!topo.find(a) || !topo.find(b)) {
        *err = fail("--link " + a + "-" + b + ": unknown node");
        return std::nullopt;
      }
      topo.add_link(a, b);
    }
    return topo;
  }
  if (opt.topology_name == "none") return std::nullopt;
  if (opt.topology_name == "isp") return pera::netsim::topo::isp();
  if (opt.topology_name == "datacenter") {
    return pera::netsim::topo::datacenter();
  }
  if (opt.topology_name.rfind("chain:", 0) == 0) {
    std::uint64_t n = 0;
    if (!parse_u64(opt.topology_name.substr(6), &n) || n == 0 || n > 64) {
      *err = fail("--topology chain:N needs 1 <= N <= 64");
      return std::nullopt;
    }
    return pera::netsim::topo::chain(static_cast<std::size_t>(n));
  }
  *err = fail("--topology: unknown topology '" + opt.topology_name + "'");
  return std::nullopt;
}

// Default provisioning: every topology node, every concrete policy place
// and every binding target gets a device key — minus the --no-key drops.
// This mirrors a fully provisioned deployment so V5 only fires where the
// user punched a hole.
void provision_keys(const Options& opt,
                    const std::optional<pera::netsim::Topology>& topo,
                    pera::crypto::KeyStore& keys) {
  if (opt.no_keys) return;
  std::set<std::string> principals;
  if (topo) {
    for (const auto& n : topo->nodes()) principals.insert(n.name);
  }
  try {
    const auto req = pera::copland::parse_request(opt.policy_text);
    for (const auto& p : pera::copland::places_of(req.body)) {
      principals.insert(p);
    }
    principals.insert(req.relying_party);
  } catch (const pera::copland::ParseError&) {
    // verify_source will report this as a P0 diagnostic.
  }
  for (const auto& [var, place] : opt.bindings) principals.insert(place);
  for (const auto& p : principals) {
    if (!opt.dropped_keys.contains(p)) keys.provision_hmac(p);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (const int rc = parse_args(argc, argv, opt); rc != 0) return rc;

  int err = 0;
  const std::optional<pera::netsim::Topology> topo = build_topology(opt, &err);
  if (err != 0) return err;

  pera::crypto::KeyStore keys(/*seed=*/42);
  provision_keys(opt, topo, keys);

  VerifyModel model;
  if (topo) model.topology = &*topo;
  model.ra_capable = opt.ra;
  model.bindings = opt.bindings;
  model.keys = &keys;
  model.guards = opt.guards;
  model.packet_universe = opt.packets;
  model.flows = opt.flows;

  ProgramHolder holder;
  if (!opt.program_spec.empty()) {
    if (const int rc = build_program(opt.program_spec, holder); rc != 0) {
      return rc;
    }
  }
  pera::verify::CoverageModel coverage;
  coverage.program = holder.get();
  coverage.staleness_budget = opt.staleness_budget;
  coverage.param_details = opt.measures;
  if (!opt.cadence_file.empty()) {
    std::ifstream in(opt.cadence_file);
    if (!in) return fail("--cadence: cannot open '" + opt.cadence_file + "'");
    std::ostringstream ss;
    ss << in.rdbuf();
    try {
      coverage.cadence = pera::ctrl::parse_cadence(ss.str());
    } catch (const std::invalid_argument& e) {
      return fail("--cadence: " + opt.cadence_file + ": " + e.what());
    }
  }

  DiagnosticEngine de(opt.policy_text);
  bool ok = pera::verify::verify_source(opt.policy_text, model, de);

  // V6-V9 need the parsed request; a parse failure was already reported
  // as P0 above, so only run them when the policy parses.
  try {
    const auto req = pera::copland::parse_request(opt.policy_text);
    ok = pera::verify::check_coverage(req, coverage, de) && ok;
  } catch (const pera::copland::ParseError&) {
  }

  if (opt.compile && ok) {
    try {
      const pera::verify::ScopedCompileGuard guard(model, opt.force);
      const auto compiled = pera::nac::compile(opt.policy_text);
      if (!opt.json) {
        std::cout << "compiled: " << compiled.hops.size() << " hop(s), "
                  << compiled.wildcard_count() << " wildcard\n";
      }
    } catch (const pera::nac::CompileError& e) {
      de.error(pera::verify::kCodeWellFormed,
               std::string("compilation failed: ") + e.what());
    }
  }

  // Canonical output order: renderings are byte-identical regardless of
  // analysis scheduling or container iteration order.
  de.sort_stable();
  std::cout << (opt.json ? de.render_json() : de.render_human());
  if (!de.ok() && !opt.force) return 1;
  return 0;
}
