// Writes the golden dataplane packet-trace corpus (see dataplane_corpus.h):
// one FIXTURES_DIR/dataplane/<program>.trace file per corpus program.
//
//   gen_dataplane_corpus tests/fixtures
//
// The committed corpus was recorded with the interpreter the lowered
// dataplane replaced; regenerating it must reproduce the same files.
#include <cstdio>
#include <fstream>

#include "dataplane_corpus.h"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: gen_dataplane_corpus FIXTURES_DIR\n");
    return 2;
  }
  const std::string dir = argv[1];
  for (const auto& p : pera::dataplane::corpus::programs(dir)) {
    const std::string path = dir + "/dataplane/" + p.name + ".trace";
    std::ofstream out(path);
    out << "# dataplane corpus: " << p.name
        << " (OP | OUTCOME | STATS | TABLES | REGS)\n";
    for (const std::string& line : pera::dataplane::corpus::record(p)) {
      out << line << '\n';
    }
    if (!out.flush()) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}
