// Textual NetKAT, so network specifications live as source alongside the
// P4-mini programs they constrain.
//
// Grammar (precedence loosest first; whitespace-insensitive, '#' comments):
//   policy  := seq ('+' seq)*                 union
//   seq     := star (';' star)*               sequential composition
//   star    := atom '*'?                      Kleene star
//   atom    := 'drop' | 'id' | 'dup'
//            | FIELD ':=' NUMBER              modification
//            | 'filter' pred
//            | '(' policy ')'
//   pred    := psum
//   psum    := pprod ('+' pprod)*             disjunction
//   pprod   := pneg ('&' pneg)*               conjunction  (';' in papers)
//   pneg    := '!' pneg | patom
//   patom   := '1' | '0'
//            | FIELD '=' NUMBER ['/' NUMBER]  test; /w gives masked test
//                                             over the top w bits of 64
//            | FIELD '&' NUMBER '=' NUMBER    masked test (explicit mask)
//            | '(' pred ')'
//   FIELD   := IDENT ('.' IDENT)*             e.g. sw, pt, ipv4.dst
//   NUMBER  := decimal | 0x hex
//
// Inside `filter (...)`, '+' and '&' are predicate operators; at policy
// level '+' is union. The parser disambiguates by context.
#pragma once

#include <stdexcept>
#include <string_view>

#include "netkat/policy.h"

namespace pera::netkat {

class NetkatParseError : public std::runtime_error {
 public:
  NetkatParseError(const std::string& msg, std::size_t pos)
      : std::runtime_error("netkat:" + std::to_string(pos) + ": " + msg),
        pos_(pos) {}

  [[nodiscard]] std::size_t pos() const { return pos_; }

 private:
  std::size_t pos_;
};

/// Parse a NetKAT policy from text: at most 65,536 tokens, 1024 nested.
[[nodiscard]] PolicyPtr parse_policy(std::string_view src);

/// Parse a bare predicate from text.
[[nodiscard]] PredPtr parse_predicate(std::string_view src);

}  // namespace pera::netkat
