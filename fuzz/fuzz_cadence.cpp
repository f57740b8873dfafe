// Fuzz harness for the re-attestation cadence config, which
// `pera_verify --cadence FILE` reads from a file. Invariant: arbitrary
// input either parses, and the scheduler configuration built from it
// completes, or throws std::invalid_argument; any other exception traps.
//
// Built by -DPERA_FUZZ=ON: libFuzzer under clang, the standalone
// replay/mutation driver elsewhere. Seed corpus: tests/fixtures/cadence
// (the configs tests/test_verify_coverage.cpp parses) and
// tests/fixtures/verify (cadence_*.conf).
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string_view>

#include "ctrl/cadence.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace pera::ctrl;
  try {
    const CadenceSpec spec = parse_cadence(
        std::string_view(reinterpret_cast<const char*>(data), size));
    (void)scheduler_config_from(spec);
  } catch (const std::invalid_argument&) {
  } catch (...) {
    __builtin_trap();
  }
  return 0;
}
