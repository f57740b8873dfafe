// Golden packet-trace corpus for the dataplane: a seeded stream of
// packets and table edits per program, each step recorded with its
// outcome (egress port and bytes, drop, parse error or pipeline fault),
// the switch counters and the table/register digests after it.
//
// One line per step:   OP | OUTCOME | STATS | TABLES | REGS
//   OP       pkt PORT HEX          ('-' for a zero-length frame)
//            add TABLE PRIO ACTION PARAMS KEYS
//            del TABLE INDEX
//   OUTCOME  fwd PORT HEX ('=' when the bytes equal the input), drop,
//            parse_error, fault (a pipeline fault: the recording
//            interpreter threw out of run_pipeline, the lowered one counts
//            SwitchStats::pipeline_faults), or ok for table edits
//   STATS    in,out,dropped,parse_errors,lookups,hits (SwitchStats)
//   TABLES   first 16 hex digits of tables_digest()
//   REGS     first 16 hex digits of the register state digest
//
// record() draws the ops from a seeded generator and applies them;
// Replayer::apply() runs a recorded OP line, so a replay feeds the
// switch exactly the recorded inputs. The corpus programs are the canned
// builders, the p4mini sources, and two corpus-only programs that reach
// what the canned ones do not: field rewrites, register ops, pipeline
// faults, parse loops, sub-byte fields and parser error states.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dataplane/program.h"

namespace pera::dataplane::corpus {

struct CorpusProgram {
  std::string name;  // also the fixture file stem
  std::function<std::shared_ptr<DataplaneProgram>()> make;
  std::vector<std::string> mutable_tables;  // targets of add/del ops
  bool vlan_traffic = false;  // draw VLAN/odd-header frames, not TCP/UDP
  std::size_t steps = 120;
};

/// Every corpus program. `fixtures_dir` is tests/fixtures (the flow-cache
/// program is read from verify/broken_v9.p4 there).
[[nodiscard]] std::vector<CorpusProgram> programs(
    const std::string& fixtures_dir);

/// Runs OP lines against one switch and renders the rest of each line.
class Replayer {
 public:
  explicit Replayer(const CorpusProgram& program);

  /// Apply one OP and return "OUTCOME | STATS | TABLES | REGS".
  [[nodiscard]] std::string apply(const std::string& op);

  [[nodiscard]] PisaSwitch& sw() { return sw_; }
  [[nodiscard]] std::uint64_t faults() const { return faults_; }

 private:
  std::shared_ptr<DataplaneProgram> program_;
  PisaSwitch sw_;
  std::uint64_t faults_ = 0;
};

/// Generate and run `program.steps` seeded ops; returns the full lines.
[[nodiscard]] std::vector<std::string> record(const CorpusProgram& program);

}  // namespace pera::dataplane::corpus
