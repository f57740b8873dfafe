// A complete dataplane program: parse graph, actions, match-action tables
// and register declarations — the unit that gets loaded onto a switch and,
// in this paper, the unit that gets *attested*.
//
// Digest levels correspond to Fig. 4's inertia axis:
//   program_digest()  — parser + actions + table schemas + register decls
//                       (changes only when the program is swapped)
//   tables_digest()   — Merkle root over table *contents*
//                       (changes on control-plane updates)
// Register state (fastest-changing) is digested by RegisterFile itself.
//
// Both digests are over this symbolic form. Packets run on the program's
// lowered form (lowered.h), built once per instance by lowered().
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "dataplane/action.h"
#include "dataplane/lowered.h"
#include "dataplane/parser.h"
#include "dataplane/registers.h"
#include "dataplane/table.h"

namespace pera::dataplane {

/// What keeps a packet-path register array from unbounded adversarial
/// growth or wedging (V9 exhaustion metadata):
///   kSlotRecycle — slots are reclaimed/overwritten when the owning flow
///                  is evicted (StatefulNat's LRU slot reuse);
///   kSaturate    — writes clamp at a bound instead of growing state.
enum class StateGuard : std::uint8_t { kNone = 0, kSlotRecycle = 1,
                                       kSaturate = 2 };

/// A register array declaration plus its mutation metadata.
struct RegisterDecl {
  std::string name;
  std::size_t size = 0;
  bool packet_writable = false;  // mutated on the per-packet path
  StateGuard guard = StateGuard::kNone;
};

/// One attestable unit of mutable dataplane state, enumerated for the
/// V6-V9 coverage analyzer. `capacity` is the entry budget for tables
/// (0 = unbounded) and the array size for registers; `guarded` means an
/// eviction policy (tables) or StateGuard (registers) bounds adversarial
/// growth.
struct StateObject {
  enum class Kind : std::uint8_t { kTable = 0, kRegister = 1 };
  Kind kind = Kind::kTable;
  std::string name;
  std::size_t capacity = 0;
  bool packet_writable = false;
  bool guarded = false;
};

class DataplaneProgram {
 public:
  DataplaneProgram(std::string name, std::string version,
                   ParserProgram parser)
      : name_(std::move(name)),
        version_(std::move(version)),
        parser_(std::move(parser)) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::string& version() const { return version_; }
  [[nodiscard]] const ParserProgram& parser() const { return parser_; }

  void add_action(ActionDef action);
  [[nodiscard]] const ActionDef* action(const std::string& name) const;
  [[nodiscard]] const std::map<std::string, ActionDef>& actions() const {
    return actions_;
  }
  /// Action names by id, in declaration order (re-adding a name keeps its
  /// id); the lowered form and the tables index actions by these ids.
  [[nodiscard]] const ActionIds& action_ids() const { return action_ids_; }

  /// Append a table to the ingress pipeline (executed in insertion order).
  Table& add_table(std::string name, std::vector<KeySpec> keys);
  [[nodiscard]] Table* table(const std::string& name);
  [[nodiscard]] const std::vector<std::unique_ptr<Table>>& tables() const {
    return tables_;
  }

  /// declare_register throws std::invalid_argument above this many cells.
  static constexpr std::size_t kMaxRegisterCells = std::size_t{1} << 24;
  void declare_register(const std::string& name, std::size_t size,
                        bool packet_writable = false,
                        StateGuard guard = StateGuard::kNone);
  [[nodiscard]] const std::vector<RegisterDecl>& register_decls() const {
    return register_decls_;
  }

  /// Enumerate every mutable state object (tables + register arrays) with
  /// its declared mutation metadata — the program-side input to the V6-V9
  /// attestation-coverage analyzer.
  [[nodiscard]] std::vector<StateObject> state_objects() const;

  /// Code-level digest — the "Program" inertia level (parser, actions,
  /// table schemas, register declarations; NOT table entries).
  [[nodiscard]] crypto::Digest program_digest() const;

  /// State-level digest of table contents — the "Tables" inertia level.
  /// Each table's root is maintained incrementally (O(changes) per
  /// measurement); the top tree over the per-table roots is tiny.
  [[nodiscard]] crypto::Digest tables_digest() const;

  /// Sum of every table's content revision — advances exactly when some
  /// table's content (and hence tables_digest()) can have changed.
  [[nodiscard]] std::uint64_t tables_revision() const;

  /// The lowered form, built on first use and again after add_action,
  /// add_table or declare_register; every switch loading this instance
  /// shares it (a switch picks up structural changes at its next
  /// load_program). Throws std::invalid_argument for malformed programs.
  [[nodiscard]] std::shared_ptr<const LoweredProgram> lowered() const;

  /// Throws std::invalid_argument when `entry` runs an action this program
  /// does not declare (an entry's "" counts as undeclared).
  void check_entry(const Table& table, const TableEntry& entry) const;

  /// The same check over every installed entry and every non-empty
  /// default action.
  void check_tables() const;

 private:
  std::string name_;
  std::string version_;
  ParserProgram parser_;
  std::map<std::string, ActionDef> actions_;
  ActionIds action_ids_;
  std::vector<std::unique_ptr<Table>> tables_;
  std::vector<RegisterDecl> register_decls_;

  mutable std::mutex lower_mu_;
  mutable std::shared_ptr<const LoweredProgram> lowered_;
};

/// Per-switch processing statistics.
struct SwitchStats {
  std::uint64_t packets_in = 0;
  std::uint64_t packets_out = 0;
  std::uint64_t packets_dropped = 0;
  std::uint64_t parse_errors = 0;
  std::uint64_t table_lookups = 0;
  std::uint64_t table_hits = 0;
  /// Packets dropped because an op faulted (LoweredProgram::run); they
  /// count here and not in packets_dropped, so
  /// packets_in = out + dropped + parse_errors + pipeline_faults.
  std::uint64_t pipeline_faults = 0;
};

/// The PISA software switch: parse -> match+action pipeline -> deparse.
/// Stages are public so the PERA extension can interleave its evidence
/// stages (Fig. 3 points A-E) around them.
class PisaSwitch {
 public:
  explicit PisaSwitch(std::shared_ptr<DataplaneProgram> program);

  /// Hot-swap the running program (what the Athens attacker did). Register
  /// state is re-declared from the new program. Throws
  /// std::invalid_argument, leaving the switch unchanged, when the program
  /// is malformed (LoweredProgram) or a table entry or default runs an
  /// undeclared action.
  void load_program(std::shared_ptr<DataplaneProgram> program);

  [[nodiscard]] const DataplaneProgram& program() const { return *program_; }
  [[nodiscard]] DataplaneProgram& program() { return *program_; }
  [[nodiscard]] std::shared_ptr<DataplaneProgram> program_ptr() {
    return program_;
  }

  [[nodiscard]] RegisterFile& registers() { return regs_; }
  [[nodiscard]] const RegisterFile& registers() const { return regs_; }
  [[nodiscard]] const SwitchStats& stats() const { return stats_; }

  // --- individual stages (for PERA interleaving) -------------------------
  /// Parse. Counts parse errors; on error rethrows (parser.h lists the
  /// exception types). The packet borrows `raw`'s bytes.
  [[nodiscard]] ParsedPacket parse(const RawPacket& raw);

  /// Run every table in pipeline order (executes matched actions). Never
  /// throws: a faulting packet is dropped and counted in pipeline_faults.
  void run_pipeline(ParsedPacket& pkt);

  /// Deparse to wire bytes with the egress port. Returns nullopt when the
  /// packet was dropped.
  [[nodiscard]] std::optional<RawPacket> deparse(const ParsedPacket& pkt);

  // --- whole-switch convenience ------------------------------------------
  /// Full parse/pipeline/deparse. Returns nullopt when dropped or on
  /// parse error.
  [[nodiscard]] std::optional<RawPacket> process(const RawPacket& raw);

 private:
  std::shared_ptr<DataplaneProgram> program_;
  std::shared_ptr<const LoweredProgram> lowered_;
  RegisterFile regs_;
  SwitchStats stats_;
  std::uint64_t next_packet_id_ = 1;
};

}  // namespace pera::dataplane
