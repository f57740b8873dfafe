// Fuzz harness for the P4-mini loader: arbitrary source text through
// compile_p4mini, the surface `pera_verify --program PATH.p4` reads from a
// file. Invariant: compilation either returns a program or throws
// P4MiniError / std::invalid_argument; a returned program's
// program_digest() completes, and its lowered() completes or throws
// std::invalid_argument (a program can name a register or metadata field
// the dataplane lacks: the verifier diagnoses it, load_program refuses
// it). Any other exception traps.
//
// Built by -DPERA_FUZZ=ON: libFuzzer under clang, the standalone
// replay/mutation driver elsewhere. Seed corpus: tests/fixtures/p4mini
// (the four built-in p4src programs).
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string_view>

#include "dataplane/p4mini.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace pera::dataplane;
  std::shared_ptr<DataplaneProgram> prog;
  try {
    prog = compile_p4mini(
        std::string_view(reinterpret_cast<const char*>(data), size));
  } catch (const P4MiniError&) {
    return 0;
  } catch (const std::invalid_argument&) {
    return 0;
  } catch (...) {
    __builtin_trap();
  }
  try {
    (void)prog->program_digest();
    (void)prog->lowered();
  } catch (const std::invalid_argument&) {
    return 0;
  } catch (...) {
    __builtin_trap();
  }
  return 0;
}
