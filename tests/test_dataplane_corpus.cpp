// Replays the golden dataplane packet-trace corpus
// (tests/fixtures/dataplane/*.trace, see dataplane_corpus.h): every
// recorded step must reproduce its outcome, egress bytes, switch
// counters and table/register digests exactly.
#include <gtest/gtest.h>

#include <fstream>

#include "dataplane_corpus.h"

namespace pera::dataplane::corpus {

// gtest prints test parameters through ADL; show the program name.
void PrintTo(const CorpusProgram& p, std::ostream* os) { *os << p.name; }

namespace {

class DataplaneCorpus : public ::testing::TestWithParam<CorpusProgram> {};

TEST_P(DataplaneCorpus, ReplaysBitIdentically) {
  const CorpusProgram& program = GetParam();
  const std::string path =
      std::string(PERA_FIXTURES_DIR) + "/dataplane/" + program.name + ".trace";
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing corpus file " << path;
  Replayer replayer(program);
  std::string line;
  std::size_t steps = 0;
  std::uint64_t faults = 0;
  for (std::size_t n = 1; std::getline(in, line); ++n) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t bar = line.find(" | ");
    ASSERT_NE(bar, std::string::npos) << path << ":" << n;
    const std::string expected = line.substr(bar + 3);
    if (expected.rfind("fault", 0) == 0) ++faults;
    ASSERT_EQ(replayer.apply(line.substr(0, bar)), expected)
        << path << ":" << n;
    ++steps;
  }
  EXPECT_EQ(steps, program.steps);
  EXPECT_EQ(replayer.faults(), faults);
}

INSTANTIATE_TEST_SUITE_P(
    Programs, DataplaneCorpus,
    ::testing::ValuesIn(programs(PERA_FIXTURES_DIR)),
    [](const ::testing::TestParamInfo<CorpusProgram>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace pera::dataplane::corpus
