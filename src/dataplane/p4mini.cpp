#include "dataplane/p4mini.h"

#include <cctype>
#include <map>
#include <vector>

namespace pera::dataplane {

namespace {

enum class Tok {
  kIdent,
  kNumber,
  kColon,
  kSemi,
  kComma,
  kLBrace,
  kRBrace,
  kLParen,
  kRParen,
  kLBracket,
  kRBracket,
  kSlash,
  kAmp,
  kArrow,
  kStar,
  kDot,
  kEnd,
};

struct Token {
  Tok kind = Tok::kEnd;
  std::string text;
  std::uint64_t number = 0;
  std::size_t line = 1;
};

class Lexer {
 public:
  explicit Lexer(std::string_view src) : src_(src) {}

  std::vector<Token> run() {
    std::vector<Token> out;
    while (pos_ < src_.size()) {
      const char c = src_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
        continue;
      }
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
        continue;
      }
      if (c == '#') {
        while (pos_ < src_.size() && src_[pos_] != '\n') ++pos_;
        continue;
      }
      if (c == '-' && pos_ + 1 < src_.size() && src_[pos_ + 1] == '>') {
        out.push_back({Tok::kArrow, "->", 0, line_});
        pos_ += 2;
        continue;
      }
      switch (c) {
        case ':': out.push_back({Tok::kColon, ":", 0, line_}); ++pos_; continue;
        case ';': out.push_back({Tok::kSemi, ";", 0, line_}); ++pos_; continue;
        case ',': out.push_back({Tok::kComma, ",", 0, line_}); ++pos_; continue;
        case '{': out.push_back({Tok::kLBrace, "{", 0, line_}); ++pos_; continue;
        case '}': out.push_back({Tok::kRBrace, "}", 0, line_}); ++pos_; continue;
        case '(': out.push_back({Tok::kLParen, "(", 0, line_}); ++pos_; continue;
        case ')': out.push_back({Tok::kRParen, ")", 0, line_}); ++pos_; continue;
        case '[': out.push_back({Tok::kLBracket, "[", 0, line_}); ++pos_; continue;
        case ']': out.push_back({Tok::kRBracket, "]", 0, line_}); ++pos_; continue;
        case '/': out.push_back({Tok::kSlash, "/", 0, line_}); ++pos_; continue;
        case '&': out.push_back({Tok::kAmp, "&", 0, line_}); ++pos_; continue;
        case '*': out.push_back({Tok::kStar, "*", 0, line_}); ++pos_; continue;
        case '.': out.push_back({Tok::kDot, ".", 0, line_}); ++pos_; continue;
        default: break;
      }
      if (std::isdigit(static_cast<unsigned char>(c))) {
        out.push_back(number());
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        out.push_back(ident());
        continue;
      }
      throw P4MiniError(std::string("unexpected character '") + c + "'",
                        line_);
    }
    out.push_back({Tok::kEnd, "", 0, line_});
    return out;
  }

 private:
  Token number() {
    const std::size_t start = pos_;
    std::uint64_t value = 0;
    if (src_[pos_] == '0' && pos_ + 1 < src_.size() &&
        (src_[pos_ + 1] == 'x' || src_[pos_ + 1] == 'X')) {
      pos_ += 2;
      if (pos_ >= src_.size() ||
          !std::isxdigit(static_cast<unsigned char>(src_[pos_]))) {
        throw P4MiniError("malformed hex literal", line_);
      }
      while (pos_ < src_.size() &&
             std::isxdigit(static_cast<unsigned char>(src_[pos_]))) {
        if (value >> 60 != 0) {
          throw P4MiniError("literal exceeds 64 bits", line_);
        }
        const char h = src_[pos_++];
        const int nib = h <= '9'   ? h - '0'
                        : h <= 'F' ? h - 'A' + 10
                                   : h - 'a' + 10;
        value = (value << 4) | static_cast<std::uint64_t>(nib);
      }
    } else {
      while (pos_ < src_.size() &&
             std::isdigit(static_cast<unsigned char>(src_[pos_]))) {
        const auto digit = static_cast<std::uint64_t>(src_[pos_++] - '0');
        if (value > (~std::uint64_t{0} - digit) / 10) {
          throw P4MiniError("literal exceeds 64 bits", line_);
        }
        value = value * 10 + digit;
      }
    }
    return {Tok::kNumber, std::string(src_.substr(start, pos_ - start)),
            value, line_};
  }

  Token ident() {
    const std::size_t start = pos_;
    while (pos_ < src_.size() &&
           (std::isalnum(static_cast<unsigned char>(src_[pos_])) ||
            src_[pos_] == '_')) {
      ++pos_;
    }
    return {Tok::kIdent, std::string(src_.substr(start, pos_ - start)), 0,
            line_};
  }

  std::string_view src_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
};

class Compiler {
 public:
  explicit Compiler(std::vector<Token> toks) : toks_(std::move(toks)) {}

  std::shared_ptr<DataplaneProgram> run() {
    expect_kw("program");
    const std::string name = expect(Tok::kIdent).text;
    const std::string version = expect(Tok::kIdent).text;
    expect(Tok::kSemi);

    // Two passes are avoided by requiring headers and parser before use,
    // which the grammar already encourages; we build incrementally.
    while (!at(Tok::kEnd)) {
      const Token head = expect(Tok::kIdent);
      if (head.text == "header") {
        parse_header();
      } else if (head.text == "parser") {
        parse_parser();
      } else if (head.text == "register") {
        parse_register();
      } else if (head.text == "action") {
        parse_action();
      } else if (head.text == "table") {
        parse_table();
      } else {
        throw P4MiniError("unknown declaration '" + head.text + "'",
                          head.line);
      }
    }

    if (!parser_seen_) {
      throw P4MiniError("program has no parser block", cur().line);
    }
    ParserProgram parser(schema_);
    for (auto& st : parser_states_) parser.add_state(std::move(st));
    auto program =
        std::make_shared<DataplaneProgram>(name, version, std::move(parser));
    for (auto& [aname, action] : actions_) program->add_action(action);
    for (auto& r : registers_) {
      program->declare_register(r.name, r.size, r.packet_writable, r.guard);
    }
    for (auto& t : tables_) {
      Table& table = program->add_table(t.name, t.keys);
      for (auto& e : t.entries) table.add_entry(e);
      table.set_default(t.default_action, t.default_params);
      table.set_mutation_profile(t.packet_writable, t.capacity, t.eviction);
    }
    return program;
  }

 private:
  struct PendingTable {
    std::string name;
    std::vector<KeySpec> keys;
    std::vector<TableEntry> entries;
    std::string default_action;
    std::vector<std::uint64_t> default_params;
    bool packet_writable = false;
    std::size_t capacity = 0;
    EvictionPolicy eviction = EvictionPolicy::kNone;
  };

  struct PendingRegister {
    std::string name;
    std::size_t size = 0;
    bool packet_writable = false;
    StateGuard guard = StateGuard::kNone;
  };

  void parse_header() {
    HeaderSpec spec;
    spec.name = expect(Tok::kIdent).text;
    expect(Tok::kLBrace);
    while (!at(Tok::kRBrace)) {
      FieldSpec field;
      field.name = expect(Tok::kIdent).text;
      expect(Tok::kColon);
      const std::uint64_t bits = expect(Tok::kNumber).number;
      if (bits == 0 || bits > 64) {
        throw P4MiniError("field width must be 1..64", cur().line);
      }
      field.bits = static_cast<unsigned>(bits);
      expect(Tok::kSemi);
      spec.fields.push_back(std::move(field));
    }
    expect(Tok::kRBrace);
    if (spec.bit_width() % 8 != 0) {
      throw P4MiniError("header '" + spec.name +
                            "' width is not a multiple of 8 bits",
                        cur().line);
    }
    schema_[spec.name] = std::move(spec);
  }

  void parse_parser() {
    parser_seen_ = true;
    expect(Tok::kLBrace);
    while (!at(Tok::kRBrace)) {
      ParserState st;
      st.name = expect(Tok::kIdent).text;
      expect(Tok::kColon);
      expect_kw("extract");
      st.header = expect(Tok::kIdent).text;
      if (!schema_.contains(st.header)) {
        throw P4MiniError("extract of undeclared header '" + st.header + "'",
                          cur().line);
      }
      if (at(Tok::kSemi)) {
        advance();
        st.next = "accept";
      } else {
        expect_kw("select");
        ParserSelect sel;
        const auto [hdr, field] = field_ref();
        if (hdr != st.header) {
          throw P4MiniError("select field must belong to the extracted header",
                            cur().line);
        }
        sel.field = field;
        expect(Tok::kLBrace);
        while (!at(Tok::kRBrace)) {
          if (at(Tok::kIdent) && cur().text == "default") {
            advance();
            expect(Tok::kColon);
            sel.default_next = expect(Tok::kIdent).text;
            expect(Tok::kSemi);
          } else {
            const std::uint64_t value = expect(Tok::kNumber).number;
            expect(Tok::kColon);
            sel.cases[value] = expect(Tok::kIdent).text;
            expect(Tok::kSemi);
          }
        }
        expect(Tok::kRBrace);
        st.select = std::move(sel);
      }
      parser_states_.push_back(std::move(st));
    }
    expect(Tok::kRBrace);
  }

  // register NAME[SIZE] [packet] [guard slots|saturate];
  // "packet" marks the array as mutated on the per-packet path; "guard"
  // names the mechanism bounding adversarial growth (V9 metadata).
  void parse_register() {
    PendingRegister reg;
    reg.name = expect(Tok::kIdent).text;
    expect(Tok::kLBracket);
    reg.size =
        number_upto(DataplaneProgram::kMaxRegisterCells, "register size");
    expect(Tok::kRBracket);
    while (!at(Tok::kSemi)) {
      const Token attr = expect(Tok::kIdent);
      if (attr.text == "packet") {
        reg.packet_writable = true;
      } else if (attr.text == "guard") {
        const Token kind = expect(Tok::kIdent);
        if (kind.text == "slots") {
          reg.guard = StateGuard::kSlotRecycle;
        } else if (kind.text == "saturate") {
          reg.guard = StateGuard::kSaturate;
        } else {
          throw P4MiniError("unknown register guard '" + kind.text + "'",
                            kind.line);
        }
      } else {
        throw P4MiniError("unknown register attribute '" + attr.text + "'",
                          attr.line);
      }
    }
    expect(Tok::kSemi);
    registers_.push_back(std::move(reg));
  }

  void parse_action() {
    ActionDef action;
    action.name = expect(Tok::kIdent).text;
    expect(Tok::kLParen);
    std::map<std::string, std::size_t> params;
    while (!at(Tok::kRParen)) {
      const std::string p = expect(Tok::kIdent).text;
      params[p] = params.size();
      if (at(Tok::kComma)) advance();
    }
    expect(Tok::kRParen);
    action.param_count = params.size();
    expect(Tok::kLBrace);
    while (!at(Tok::kRBrace)) {
      action.ops.push_back(parse_stmt(params));
    }
    expect(Tok::kRBrace);
    actions_[action.name] = std::move(action);
  }

  Op parse_stmt(const std::map<std::string, std::size_t>& params) {
    const Token head = expect(Tok::kIdent);
    Op op;
    if (head.text == "drop") {
      op.kind = OpKind::kDrop;
      expect(Tok::kSemi);
      return op;
    }
    expect(Tok::kLParen);
    if (head.text == "set_egress") {
      op.kind = OpKind::kSetEgressPort;
      op.a = operand(params);
    } else if (head.text == "set_field") {
      op.kind = OpKind::kSetField;
      const auto [hdr, field] = field_ref();
      op.dst = FieldRef{hdr, field};
      expect(Tok::kComma);
      op.a = operand(params);
    } else if (head.text == "set_meta0" || head.text == "set_meta1") {
      op.kind = OpKind::kSetUserMeta;
      op.which_meta = head.text == "set_meta0" ? 0 : 1;
      op.a = operand(params);
    } else if (head.text == "reg_write") {
      op.kind = OpKind::kRegWrite;
      op.reg = expect(Tok::kIdent).text;
      expect(Tok::kComma);
      op.a = operand(params);
      expect(Tok::kComma);
      op.b = operand(params);
    } else {
      throw P4MiniError("unknown statement '" + head.text + "'", head.line);
    }
    expect(Tok::kRParen);
    expect(Tok::kSemi);
    return op;
  }

  Operand operand(const std::map<std::string, std::size_t>& params) {
    if (at(Tok::kNumber)) return Operand::imm(advance().number);
    const Token t = expect(Tok::kIdent);
    const auto it = params.find(t.text);
    if (it == params.end()) {
      throw P4MiniError("unknown action parameter '" + t.text + "'", t.line);
    }
    return Operand::param(it->second);
  }

  void parse_table() {
    PendingTable table;
    table.name = expect(Tok::kIdent).text;
    expect(Tok::kLBrace);
    expect_kw("key");
    expect(Tok::kLBrace);
    while (!at(Tok::kRBrace)) {
      KeySpec key;
      const auto [hdr, field] = field_ref();
      key.field = FieldRef{hdr, field};
      if (hdr != "meta") {
        const auto sit = schema_.find(hdr);
        if (sit == schema_.end()) {
          throw P4MiniError("key references undeclared header '" + hdr + "'",
                            cur().line);
        }
        const int idx = sit->second.field_index(field);
        if (idx < 0) {
          throw P4MiniError("no field '" + field + "' in header " + hdr,
                            cur().line);
        }
        key.width = sit->second.fields[static_cast<std::size_t>(idx)].bits;
      }
      expect(Tok::kColon);
      const Token kind = expect(Tok::kIdent);
      if (kind.text == "exact") {
        key.kind = MatchKind::kExact;
      } else if (kind.text == "lpm") {
        key.kind = MatchKind::kLpm;
        if (at(Tok::kSlash)) {  // explicit width override: lpm/32
          advance();
          key.width = static_cast<unsigned>(number_upto(64, "lpm width"));
        }
      } else if (kind.text == "ternary") {
        key.kind = MatchKind::kTernary;
      } else {
        throw P4MiniError("unknown match kind '" + kind.text + "'",
                          kind.line);
      }
      expect(Tok::kSemi);
      table.keys.push_back(std::move(key));
    }
    expect(Tok::kRBrace);

    while (!at(Tok::kRBrace)) {
      const Token head = expect(Tok::kIdent);
      if (head.text == "entry") {
        TableEntry entry;
        entry.keys.push_back(key_match());
        while (at(Tok::kComma)) {
          advance();
          entry.keys.push_back(key_match());
        }
        if (at(Tok::kIdent) && cur().text == "prio") {
          advance();
          entry.priority = static_cast<std::uint32_t>(
              number_upto(0xffffffffu, "priority"));
        }
        expect(Tok::kArrow);
        entry.action = expect(Tok::kIdent).text;
        expect(Tok::kLParen);
        while (!at(Tok::kRParen)) {
          entry.action_params.push_back(expect(Tok::kNumber).number);
          if (at(Tok::kComma)) advance();
        }
        expect(Tok::kRParen);
        expect(Tok::kSemi);
        if (entry.keys.size() != table.keys.size()) {
          throw P4MiniError("entry key count mismatch in table '" +
                                table.name + "'",
                            head.line);
        }
        if (!actions_.contains(entry.action)) {
          throw P4MiniError("entry uses undeclared action '" + entry.action +
                                "'",
                            head.line);
        }
        table.entries.push_back(std::move(entry));
      } else if (head.text == "default") {
        table.default_action = expect(Tok::kIdent).text;
        if (!actions_.contains(table.default_action)) {
          throw P4MiniError("default uses undeclared action '" +
                                table.default_action + "'",
                            head.line);
        }
        expect(Tok::kLParen);
        while (!at(Tok::kRParen)) {
          table.default_params.push_back(expect(Tok::kNumber).number);
          if (at(Tok::kComma)) advance();
        }
        expect(Tok::kRParen);
        expect(Tok::kSemi);
      } else if (head.text == "state") {
        // state packet; — entries are installed per arriving flow.
        expect_kw("packet");
        expect(Tok::kSemi);
        table.packet_writable = true;
      } else if (head.text == "capacity") {
        table.capacity =
            static_cast<std::size_t>(expect(Tok::kNumber).number);
        expect(Tok::kSemi);
      } else if (head.text == "evict") {
        const Token kind = expect(Tok::kIdent);
        if (kind.text == "lru") {
          table.eviction = EvictionPolicy::kLru;
        } else if (kind.text == "ttl") {
          table.eviction = EvictionPolicy::kTtl;
        } else if (kind.text == "none") {
          table.eviction = EvictionPolicy::kNone;
        } else {
          throw P4MiniError("unknown eviction policy '" + kind.text + "'",
                            kind.line);
        }
        expect(Tok::kSemi);
      } else {
        throw P4MiniError(
            "expected 'entry', 'default', 'state', 'capacity' or 'evict' "
            "in table body",
            head.line);
      }
    }
    expect(Tok::kRBrace);
    tables_.push_back(std::move(table));
  }

  KeyMatch key_match() {
    if (at(Tok::kStar)) {
      advance();
      return KeyMatch::wildcard();
    }
    const std::uint64_t value = expect(Tok::kNumber).number;
    if (at(Tok::kSlash)) {
      advance();
      return KeyMatch::lpm(
          value, static_cast<unsigned>(number_upto(64, "prefix length")));
    }
    if (at(Tok::kAmp)) {
      advance();
      return KeyMatch::ternary(value, expect(Tok::kNumber).number);
    }
    return KeyMatch::exact(value);
  }

  std::pair<std::string, std::string> field_ref() {
    const std::string hdr = expect(Tok::kIdent).text;
    expect(Tok::kDot);
    const std::string field = expect(Tok::kIdent).text;
    return {hdr, field};
  }

  // --- token helpers -------------------------------------------------------
  [[nodiscard]] const Token& cur() const { return toks_[pos_]; }
  [[nodiscard]] bool at(Tok k) const { return cur().kind == k; }
  Token advance() { return toks_[pos_++]; }

  Token expect(Tok k) {
    if (!at(k)) {
      throw P4MiniError("unexpected token '" + cur().text + "'", cur().line);
    }
    return advance();
  }

  // A number that must fit a narrower field than the lexer's 64 bits.
  std::uint64_t number_upto(std::uint64_t max, const char* what) {
    const Token t = expect(Tok::kNumber);
    if (t.number > max) {
      throw P4MiniError(std::string(what) + " " + t.text + " exceeds " +
                            std::to_string(max),
                        t.line);
    }
    return t.number;
  }

  void expect_kw(const std::string& kw) {
    const Token t = expect(Tok::kIdent);
    if (t.text != kw) {
      throw P4MiniError("expected '" + kw + "', found '" + t.text + "'",
                        t.line);
    }
  }

  std::vector<Token> toks_;
  std::size_t pos_ = 0;

  std::map<std::string, HeaderSpec> schema_;
  std::vector<ParserState> parser_states_;
  bool parser_seen_ = false;
  std::map<std::string, ActionDef> actions_;
  std::vector<PendingRegister> registers_;
  std::vector<PendingTable> tables_;
};

}  // namespace

std::shared_ptr<DataplaneProgram> compile_p4mini(std::string_view source) {
  Lexer lex(source);
  Compiler compiler(lex.run());
  return compiler.run();
}

namespace p4src {

namespace {
constexpr const char* kCommonHeaders = R"(
header eth  { dst:48; src:48; ethertype:16; }
header ipv4 { ver_ihl:8; dscp:8; len:16; ttl:8; proto:8; checksum:16;
              src:32; dst:32; }
header tcp  { sport:16; dport:16; seq:32; ack:32; flags:16; window:16; }

parser {
  start:      extract eth  select eth.ethertype { 0x0800: parse_ipv4;
                                                  default: accept; }
  parse_ipv4: extract ipv4 select ipv4.proto    { 6: parse_tcp;
                                                  default: accept; }
  parse_tcp:  extract tcp;
}

action fwd(port)  { set_egress(port); }
action drop_pkt() { drop; }
action noop()     { }
)";

constexpr const char* kRoutes = R"(
  entry 0x0a000100/24 -> fwd(1);
  entry 0x0a000200/24 -> fwd(2);
  entry 0x0a000300/24 -> fwd(3);
  entry 0x0a000400/24 -> fwd(4);
  entry 0x0a000500/24 -> fwd(5);
  entry 0x0a000600/24 -> fwd(6);
  entry 0x0a000700/24 -> fwd(7);
  entry 0x0a000800/24 -> fwd(8);
  default drop_pkt();
)";
}  // namespace

const char* router_v1() {
  static const std::string src = std::string("program router v1;\n") +
                                 kCommonHeaders +
                                 "\ntable route {\n  key { ipv4.dst: lpm; }\n" +
                                 kRoutes + "}\n";
  return src.c_str();
}

const char* firewall_v5() {
  static const std::string src =
      std::string("program firewall v5;\n") + kCommonHeaders + R"(
table acl {
  key { ipv4.src: ternary; ipv4.dst: ternary; tcp.dport: ternary; }
  entry *, *, 443&0xffff prio 10 -> noop();
  entry *, *, 80&0xffff  prio 10 -> noop();
  entry *, *, 22&0xffff  prio 10 -> noop();
  entry 0x0a000000&0xff000000, 0x0a000000&0xff000000, * prio 5 -> noop();
  default drop_pkt();
}
table route {
  key { ipv4.dst: lpm; }
)" + kRoutes + "}\n";
  return src.c_str();
}

const char* acl_v3() {
  static const std::string src =
      std::string("program acl v3;\n") + kCommonHeaders + R"(
table allow {
  key { tcp.dport: exact; }
  entry 25    -> drop_pkt();
  entry 6667  -> drop_pkt();
  entry 31337 -> drop_pkt();
}
table route {
  key { ipv4.dst: lpm; }
)" + kRoutes + "}\n";
  return src.c_str();
}

const char* rogue_router_v1() {
  // The Athens payload: identical routing plus the covert target table.
  static const std::string src =
      std::string("program router v1;\n") + kCommonHeaders + R"(
action mark_intercept() { set_meta1(1); }

table targets {
  key { ipv4.dst: exact; }
  entry 0x0a000105 -> mark_intercept();
  entry 0x0a000207 -> mark_intercept();
  entry 0x0a000309 -> mark_intercept();
}
table route {
  key { ipv4.dst: lpm; }
)" + kRoutes + "}\n";
  return src.c_str();
}

}  // namespace p4src

}  // namespace pera::dataplane
