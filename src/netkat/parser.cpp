#include "netkat/parser.h"

#include <cctype>
#include <vector>

namespace pera::netkat {

namespace {

enum class Tok {
  kIdent,   // field path or keyword
  kNumber,
  kPlus,
  kSemi,
  kStar,
  kBang,
  kAmp,
  kEq,
  kAssign,  // :=
  kSlash,
  kLParen,
  kRParen,
  kEnd,
};

struct Token {
  Tok kind = Tok::kEnd;
  std::string text;
  std::uint64_t number = 0;
  std::size_t pos = 0;
};

std::vector<Token> lex(std::string_view src) {
  std::vector<Token> out;
  std::size_t i = 0;
  while (i < src.size()) {
    const char c = src[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '#') {
      while (i < src.size() && src[i] != '\n') ++i;
      continue;
    }
    const std::size_t pos = i;
    if (c == ':' && i + 1 < src.size() && src[i + 1] == '=') {
      out.push_back({Tok::kAssign, ":=", 0, pos});
      i += 2;
      continue;
    }
    switch (c) {
      case '+': out.push_back({Tok::kPlus, "+", 0, pos}); ++i; continue;
      case ';': out.push_back({Tok::kSemi, ";", 0, pos}); ++i; continue;
      case '*': out.push_back({Tok::kStar, "*", 0, pos}); ++i; continue;
      case '!': out.push_back({Tok::kBang, "!", 0, pos}); ++i; continue;
      case '&': out.push_back({Tok::kAmp, "&", 0, pos}); ++i; continue;
      case '=': out.push_back({Tok::kEq, "=", 0, pos}); ++i; continue;
      case '/': out.push_back({Tok::kSlash, "/", 0, pos}); ++i; continue;
      case '(': out.push_back({Tok::kLParen, "(", 0, pos}); ++i; continue;
      case ')': out.push_back({Tok::kRParen, ")", 0, pos}); ++i; continue;
      default: break;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::uint64_t value = 0;
      if (c == '0' && i + 1 < src.size() &&
          (src[i + 1] == 'x' || src[i + 1] == 'X')) {
        i += 2;
        const std::size_t start = i;
        while (i < src.size() &&
               std::isxdigit(static_cast<unsigned char>(src[i]))) {
          const char h = src[i++];
          const int nib = h <= '9'   ? h - '0'
                          : h <= 'F' ? h - 'A' + 10
                                     : h - 'a' + 10;
          value = (value << 4) | static_cast<std::uint64_t>(nib);
        }
        if (i == start) throw NetkatParseError("malformed hex literal", pos);
      } else {
        while (i < src.size() &&
               std::isdigit(static_cast<unsigned char>(src[i]))) {
          value = value * 10 + static_cast<std::uint64_t>(src[i++] - '0');
        }
      }
      out.push_back({Tok::kNumber, "", value, pos});
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t j = i;
      while (j < src.size() &&
             (std::isalnum(static_cast<unsigned char>(src[j])) ||
              src[j] == '_' || src[j] == '.')) {
        ++j;
      }
      out.push_back({Tok::kIdent, std::string(src.substr(i, j - i)), 0, pos});
      i = j;
      continue;
    }
    throw NetkatParseError(std::string("unexpected character '") + c + "'",
                           pos);
  }
  // Chains ("a ; b ; ...") nest as deep as they are long; cap them too.
  if (out.size() > 65536) throw NetkatParseError("over 65536 tokens", 0);
  out.push_back({Tok::kEnd, "", 0, src.size()});
  return out;
}

class Parser {
 public:
  explicit Parser(std::vector<Token> toks) : toks_(std::move(toks)) {}

  PolicyPtr policy_top() {
    PolicyPtr p = parse_policy();
    expect(Tok::kEnd);
    return p;
  }

  PredPtr pred_top() {
    PredPtr p = parse_pred();
    expect(Tok::kEnd);
    return p;
  }

 private:
  PolicyPtr parse_policy() {
    PolicyPtr p = parse_seq();
    while (at(Tok::kPlus)) {
      advance();
      p = Policy::unite(std::move(p), parse_seq());
    }
    return p;
  }

  PolicyPtr parse_seq() {
    PolicyPtr p = parse_star();
    while (at(Tok::kSemi)) {
      advance();
      p = Policy::seq(std::move(p), parse_star());
    }
    return p;
  }

  PolicyPtr parse_star() {
    PolicyPtr p = parse_atom();
    while (at(Tok::kStar)) {
      advance();
      p = Policy::star(std::move(p));
    }
    return p;
  }

  PolicyPtr parse_atom() {
    if (at(Tok::kLParen)) {
      enter();
      PolicyPtr p = parse_policy();
      expect(Tok::kRParen);
      --depth_;
      return p;
    }
    if (at(Tok::kIdent)) {
      const Token head = advance();
      if (head.text == "drop") return Policy::drop();
      if (head.text == "id") return Policy::id();
      if (head.text == "dup") return Policy::dup();
      if (head.text == "filter") {
        // filter binds one negation-level predicate; parenthesize
        // disjunctions/conjunctions ("filter (a + b)").
        return Policy::filter(parse_pred_neg());
      }
      // field := value
      expect(Tok::kAssign);
      const Token value = expect(Tok::kNumber);
      return Policy::mod(head.text, value.number);
    }
    throw NetkatParseError("expected a policy, found '" + cur().text + "'",
                           cur().pos);
  }

  // --- predicates -----------------------------------------------------------
  PredPtr parse_pred() {
    PredPtr p = parse_pred_conj();
    while (at(Tok::kPlus)) {
      advance();
      p = Predicate::disj(std::move(p), parse_pred_conj());
    }
    return p;
  }

  PredPtr parse_pred_conj() {
    PredPtr p = parse_pred_neg();
    while (at(Tok::kAmp) || at(Tok::kSemi)) {
      advance();
      p = Predicate::conj(std::move(p), parse_pred_neg());
    }
    return p;
  }

  PredPtr parse_pred_neg() {
    if (at(Tok::kBang)) {
      enter();
      PredPtr p = Predicate::neg(parse_pred_neg());
      --depth_;
      return p;
    }
    return parse_pred_atom();
  }

  PredPtr parse_pred_atom() {
    if (at(Tok::kLParen)) {
      enter();
      PredPtr p = parse_pred();
      expect(Tok::kRParen);
      --depth_;
      return p;
    }
    if (at(Tok::kNumber)) {
      const Token t = advance();
      if (t.number == 1) return Predicate::tru();
      if (t.number == 0) return Predicate::fls();
      throw NetkatParseError("predicate constants are 0 or 1", t.pos);
    }
    const Token field = expect(Tok::kIdent);
    if (at(Tok::kAmp)) {
      // field & mask = value
      advance();
      const Token mask = expect(Tok::kNumber);
      expect(Tok::kEq);
      const Token value = expect(Tok::kNumber);
      return Predicate::test_masked(field.text, value.number, mask.number);
    }
    expect(Tok::kEq);
    const Token value = expect(Tok::kNumber);
    if (at(Tok::kSlash)) {
      // field = value/prefix : top `prefix` bits of a 64-bit field. For a
      // narrower field, write the explicit mask form.
      advance();
      const Token plen = expect(Tok::kNumber);
      if (plen.number == 0 || plen.number > 64) {
        throw NetkatParseError("prefix length must be 1..64", plen.pos);
      }
      const std::uint64_t mask =
          plen.number >= 64
              ? ~0ULL
              : (((std::uint64_t{1} << plen.number) - 1)
                 << (64 - plen.number));
      return Predicate::test_masked(field.text, value.number, mask);
    }
    return Predicate::test(field.text, value.number);
  }

  // --- helpers ----------------------------------------------------------------
  [[nodiscard]] const Token& cur() const { return toks_[pos_]; }
  [[nodiscard]] bool at(Tok k) const { return cur().kind == k; }
  Token advance() { return toks_[pos_++]; }

  // Consumes a '(' or '!', capping the recursion they nest (stack safety).
  void enter() {
    if (++depth_ > kMaxDepth) {
      throw NetkatParseError("nesting deeper than 1024", cur().pos);
    }
    advance();
  }

  Token expect(Tok k) {
    if (!at(k)) {
      throw NetkatParseError("unexpected token '" + cur().text + "'",
                             cur().pos);
    }
    return advance();
  }

  static constexpr std::size_t kMaxDepth = 1024;
  std::vector<Token> toks_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

PolicyPtr parse_policy(std::string_view src) {
  Parser p(lex(src));
  return p.policy_top();
}

PredPtr parse_predicate(std::string_view src) {
  Parser p(lex(src));
  return p.pred_top();
}

}  // namespace pera::netkat
