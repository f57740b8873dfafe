// Fuzz harness for the NetKAT text parser, which reads spec and guard
// text that a verifier user supplies. Invariant: arbitrary input either
// parses, as a policy and as a bare predicate, or throws NetkatParseError;
// any other exception traps.
//
// Built by -DPERA_FUZZ=ON: libFuzzer under clang, the standalone
// replay/mutation driver elsewhere. Seed corpus: tests/fixtures/netkat
// (the strings tests/test_netkat_parser.cpp parses).
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "netkat/parser.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace pera::netkat;
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  try {
    (void)parse_policy(text);
  } catch (const NetkatParseError&) {
  } catch (...) {
    __builtin_trap();
  }
  try {
    (void)parse_predicate(text);
  } catch (const NetkatParseError&) {
  } catch (...) {
    __builtin_trap();
  }
  return 0;
}
