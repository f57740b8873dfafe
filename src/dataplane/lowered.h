// The lowered form of a DataplaneProgram: the one form packets run on.
//
// Lowering resolves every name the symbolic program uses, once, in the
// style of bmv2's JSON-to-pipeline load step:
//   * headers get ids and a fixed PHV layout (a base slot per header and
//     a bit offset per field), and the parse graph becomes index arrays;
//   * table keys become header slots or metadata fields;
//   * action ops become flat vectors over slots and register handles,
//     indexed by the program's action ids (which table entries cache).
// The symbolic program stays the construction, measurement and verifier
// form: program_digest() and tables_digest() are computed over it, so
// lowering changes no evidence. DataplaneProgram::lowered() builds this
// once per program instance; every switch loading the instance shares it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dataplane/action.h"
#include "dataplane/packet.h"
#include "dataplane/parser.h"

namespace pera::dataplane {

class DataplaneProgram;
class RegisterFile;
class Table;
struct SwitchStats;

class LoweredProgram {
 public:
  /// Lower `program`. Throws std::invalid_argument when a table key or an
  /// action op references an unknown header, field, metadata field or
  /// register, or the schema is malformed (a field wider than 64 bits,
  /// more than 64 headers, a header filed under another header's name).
  /// Parser references that do not resolve stay parse errors (parser.h).
  explicit LoweredProgram(const DataplaneProgram& program);

  /// Parse `raw` into `pkt`, which borrows raw's bytes. Throws on a parse
  /// error, as parser.h describes.
  void parse(const RawPacket& raw, ParsedPacket& pkt) const;

  /// Run every table in order, counting lookups and hits. Returns false,
  /// with the packet marked dropped and faulted, when an op faults: it
  /// touches a header the packet lacks, indexes a register out of range,
  /// misses a parameter, or the table names an undeclared action. Ops
  /// before the faulting one keep their effects, registers included.
  [[nodiscard]] bool run(ParsedPacket& pkt, RegisterFile& regs,
                         SwitchStats& stats) const;

  /// The packet's wire bytes: its ingress bytes with every written header,
  /// and every header with pad bits, re-packed in place.
  [[nodiscard]] static Bytes deparse(const ParsedPacket& pkt);

  /// Header id of a schema header, or -1.
  [[nodiscard]] int header_id(const std::string& name) const;
  [[nodiscard]] const HeaderSpec& spec(std::uint32_t header) const {
    return *headers_[header].spec;
  }
  /// PHV slot of the first field of a header's first instance.
  [[nodiscard]] std::uint32_t base(std::uint32_t header) const {
    return headers_[header].base;
  }

  /// Visit `pkt`'s extracted headers in wire order as
  /// f(header id, first value slot, byte offset in the ingress bytes).
  template <typename F>
  void walk(const ParsedPacket& pkt, F&& f) const {
    std::uint64_t seen = 0;
    std::uint32_t spill = slots_;  // repeated headers follow the schema slots
    std::size_t offset = 0;
    for (std::size_t k = 0; k < pkt.extracted_; ++k) {
      const std::uint32_t h = pkt.order_[k];
      const Header& header = headers_[h];
      std::uint32_t slot = header.base;
      if (((seen >> h) & 1) != 0) {
        slot = spill;
        spill += header.fields;
      }
      seen |= std::uint64_t{1} << h;
      f(h, slot, offset);
      offset += header.bytes;
    }
  }

 private:
  static constexpr std::int32_t kAccept = -1;
  static constexpr std::uint8_t kNoMeta = 0xff;

  struct Header {
    const HeaderSpec* spec = nullptr;
    std::uint32_t base = 0;   // first PHV slot (and first entry in fields_)
    std::uint32_t fields = 0;
    std::size_t bytes = 0;    // wire width
    bool padded = false;      // bit width not a multiple of 8
  };
  struct Field {  // where a field sits in its header on the wire
    std::uint32_t bit_offset = 0;
    std::uint32_t bits = 0;
  };
  struct State {
    std::int32_t header = -1;   // header id extracted, -1 for none
    std::int32_t select = -1;   // field index selected on, -1 unconditional
    std::vector<std::pair<std::uint64_t, std::int32_t>> cases;  // sorted
    std::int32_t next = kAccept;  // unconditional or select-default target
    std::string error;            // parse error raised after extraction
  };
  struct Slot {  // a field of a header's first instance
    std::uint32_t header = 0;
    std::uint32_t slot = 0;
    std::uint64_t mask = 0;
  };
  struct Key {
    Slot field;
    std::uint8_t meta = kNoMeta;  // metadata field, or kNoMeta for a header
  };
  struct Stage {
    Table* table = nullptr;
    std::vector<Key> keys;
  };
  struct LOp {
    OpKind kind = OpKind::kNoop;
    Slot dst;
    Slot src;
    Operand a;
    Operand b;
    std::size_t reg = 0;  // register handle
    unsigned which_meta = 0;
  };
  struct Action {
    std::size_t param_count = 0;
    std::vector<LOp> ops;
  };

  /// Throws std::invalid_argument naming `kind` `owner` of `program`
  /// when `ref` is no schema field.
  [[nodiscard]] Slot slot_of(const FieldRef& ref, const std::string& program,
                             const char* kind, const std::string& owner) const;
  [[nodiscard]] std::int32_t state_index(
      const std::string& name, const std::map<std::string, ParserState>& states);
  [[nodiscard]] static bool execute(const Action& action,
                                    const std::vector<std::uint64_t>& params,
                                    ParsedPacket& pkt, RegisterFile& regs);

  std::vector<Header> headers_;
  std::vector<Field> fields_;  // every header's fields, in PHV slot order
  std::uint32_t slots_ = 0;  // PHV slots of one instance of every header
  std::vector<State> states_;
  std::int32_t start_ = kAccept;
  std::vector<Stage> stages_;
  std::vector<Action> actions_;  // by action id
};

}  // namespace pera::dataplane
