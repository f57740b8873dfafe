// The bench harness (bench/harness.h): flag parsing, the JSON record
// builder, the output writer, order statistics and gate reporting. Built
// into the test binary without Google Benchmark.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <string>
#include <vector>

#include "../bench/harness.h"
#include "obs/obs.h"

namespace {

using namespace pera;

// Owns argv storage for one Args; the strings outlive the Args under test.
struct Argv {
  explicit Argv(std::vector<std::string> args) : strings(std::move(args)) {
    strings.insert(strings.begin(), "bench_x");
    for (std::string& s : strings) ptrs.push_back(s.data());
  }
  int argc() const { return static_cast<int>(ptrs.size()); }
  char** argv() { return ptrs.data(); }

  std::vector<std::string> strings;
  std::vector<char*> ptrs;
};

std::vector<std::string> as_strings(const std::vector<char*>& v) {
  return {v.begin(), v.end()};
}

// Strict recursive-descent JSON validator: true when `text` is exactly
// one JSON value (plus whitespace).
class JsonChecker {
 public:
  static bool valid(const std::string& text) {
    JsonChecker c(text);
    return c.value() && (c.ws(), c.i_ == text.size());
  }

 private:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  void ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
  }
  bool eat(char c) {
    ws();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  bool literal(const char* word) {
    const std::string w = word;
    if (s_.compare(i_, w.size(), w) != 0) return false;
    i_ += w.size();
    return true;
  }
  bool string() {
    if (!eat('"')) return false;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (static_cast<unsigned char>(s_[i_]) < 0x20) return false;
      if (s_[i_] == '\\') ++i_;
      ++i_;
    }
    return eat('"');
  }
  bool number() {
    const std::size_t start = i_;
    if (i_ < s_.size() && s_[i_] == '-') ++i_;
    std::size_t digits = 0;
    while (i_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
      ++digits;
    }
    if (i_ < s_.size() && s_[i_] == '.') {
      ++i_;
      std::size_t frac = 0;
      while (i_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[i_]))) {
        ++i_;
        ++frac;
      }
      if (frac == 0) return false;
    }
    return digits > 0 && i_ > start;
  }
  template <class Item>
  bool sequence(char close, Item item) {
    if (eat(close)) return true;
    do {
      if (!item()) return false;
    } while (eat(','));
    return eat(close);
  }
  bool value() {
    ws();
    if (i_ >= s_.size()) return false;
    switch (s_[i_]) {
      case '{':
        ++i_;
        return sequence('}', [this] { return string() && eat(':') && value(); });
      case '[':
        ++i_;
        return sequence(']', [this] { return value(); });
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

// ------------------------------------------------------------------ Args --

TEST(BenchHarnessArgs, ValueFlagsBareFlagsAndCommaLists) {
  Argv a({"--json=out.json", "--packets=512", "--pin", "--shards=1,4,,0,8",
          "--smoke"});
  bench::Args args(a.argc(), a.argv());
  EXPECT_EQ(args.str("--json", "default.json"), "out.json");
  EXPECT_EQ(args.str("--profile-json", ""), "");
  EXPECT_EQ(args.size("--packets", 4096), 512u);
  EXPECT_EQ(args.size("--flows", 64), 64u);
  EXPECT_TRUE(args.flag("--pin"));
  EXPECT_TRUE(args.flag("--smoke"));
  EXPECT_FALSE(args.flag("--verbose"));
  EXPECT_EQ(args.sizes("--shards", {2}), (std::vector<std::size_t>{1, 4, 8}));
  EXPECT_EQ(args.rest().size(), 1u) << "every argument was claimed";
}

TEST(BenchHarnessArgs, LastOccurrenceWinsAndEmptyListKeepsFallback) {
  Argv a({"--repeat=1", "--repeat=3", "--shards=0,x"});
  bench::Args args(a.argc(), a.argv());
  EXPECT_EQ(args.size("--repeat", 0), 3u);
  EXPECT_EQ(args.sizes("--shards", {1, 2}),
            (std::vector<std::size_t>{1, 2}));
}

TEST(BenchHarnessArgs, UnclaimedArgumentsPassThroughInOrder) {
  Argv a({"--benchmark_filter=^$", "--json=x.json", "positional",
          "--benchmark_min_time=0.01", "--pin=1", "--json"});
  bench::Args args(a.argc(), a.argv());
  EXPECT_EQ(args.str("--json", ""), "x.json");
  EXPECT_FALSE(args.flag("--pin")) << "--pin=1 is not the bare flag";
  EXPECT_EQ(as_strings(args.rest()),
            (std::vector<std::string>{"bench_x", "--benchmark_filter=^$",
                                      "positional",
                                      "--benchmark_min_time=0.01", "--pin=1",
                                      "--json"}));
}

TEST(BenchHarnessArgs, MetricsJsonBothFormsEnableObsAtParseTime) {
  const std::string path = ::testing::TempDir() + "bench_harness.metrics.json";
  std::remove(path.c_str());
  obs::set_enabled(false);
  {
    Argv a({"--metrics-json", path, "--benchmark_filter=x"});
    bench::Args args(a.argc(), a.argv());
    EXPECT_TRUE(obs::enabled()) << "enabled before any run";
    EXPECT_EQ(as_strings(args.rest()),
              (std::vector<std::string>{"bench_x", "--benchmark_filter=x"}));
    ASSERT_TRUE(args.write_metrics());
    std::FILE* f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr) << "the PATH form names the dump";
    std::fclose(f);
    std::remove(path.c_str());
  }
  obs::set_enabled(false);
  const std::size_t capacity = obs::trace().capacity();
  {
    Argv a({"--metrics-json=/nonexistent-dir/m.json", "--trace-capacity=64"});
    bench::Args args(a.argc(), a.argv());
    EXPECT_TRUE(obs::enabled());
    EXPECT_EQ(obs::trace().capacity(), 64u);
    EXPECT_EQ(args.rest().size(), 1u);
    EXPECT_FALSE(args.write_metrics()) << "the =PATH form names the dump";
  }
  obs::trace().set_capacity(capacity);
  obs::set_enabled(false);
  obs::reset();
  {
    Argv a({"--trace-capacity=64"});
    bench::Args args(a.argc(), a.argv());
    EXPECT_FALSE(obs::enabled()) << "obs stays off without --metrics-json";
    EXPECT_EQ(obs::trace().capacity(), capacity);
    EXPECT_TRUE(args.write_metrics()) << "no path: nothing to write";
  }
}

// ------------------------------------------------------------------ Json --

struct Row {
  int shards;
  double share;
};

void row_json(bench::Json& o, const Row& r) {
  o.integer("shards", r.shards).fixed("share", r.share, 2);
}

TEST(BenchHarnessJson, ZeroCells) {
  bench::Json j;
  j.integer("rounds", 3).objects("cells", std::vector<Row>{}, row_json);
  const std::string out = j.str();
  EXPECT_TRUE(JsonChecker::valid(out)) << out;
  EXPECT_EQ(out, "{\n  \"rounds\": 3,\n  \"cells\": [\n  ]\n}\n");
  EXPECT_EQ(bench::Json().str(), "{\n}\n");
  EXPECT_TRUE(JsonChecker::valid(bench::Json().str()));
}

TEST(BenchHarnessJson, OneCellKeepsEachFieldsPrecision) {
  bench::Json j;
  j.string("scenario", "a \"quoted\" \\name")
      .begin_object("cpu")
      .boolean("shani", true)
      .boolean("avx2", false)
      .end()
      .objects("cells", std::vector<int>{0}, [](bench::Json& o, int) {
        o.integer("n", std::size_t{1000})
            .integer("delta", -7LL)
            .fixed("f0", 1234.5678, 0)
            .fixed("f1", 2.26, 1)
            .fixed("f2", 3.14159, 2)
            .fixed("f3", 0.02, 3)
            .fixed("f4", 0.123456, 4);
      });
  const std::string out = j.str();
  EXPECT_TRUE(JsonChecker::valid(out)) << out;
  EXPECT_EQ(out,
            "{\n"
            "  \"scenario\": \"a \\\"quoted\\\" \\\\name\",\n"
            "  \"cpu\": {\"shani\": true, \"avx2\": false},\n"
            "  \"cells\": [\n"
            "    {\"n\": 1000, \"delta\": -7, \"f0\": 1235, \"f1\": 2.3, "
            "\"f2\": 3.14, \"f3\": 0.020, \"f4\": 0.1235}\n"
            "  ]\n"
            "}\n");
}

TEST(BenchHarnessJson, ManyCellsAndRawEmbedding) {
  bench::Json j;
  j.objects("cells", std::vector<Row>{{0, 0.5}, {1, 0.25}, {2, 1.0}},
            [](bench::Json& o, const Row& r) {
              row_json(o, r);
              o.raw("profile", "{\"stages\": [1, 2], \"ok\": true}");
            })
      .objects("more", std::vector<Row>{}, row_json)
      .boolean("ok", true);
  const std::string out = j.str();
  EXPECT_TRUE(JsonChecker::valid(out)) << out;
  EXPECT_EQ(out,
            "{\n"
            "  \"cells\": [\n"
            "    {\"shards\": 0, \"share\": 0.50, \"profile\": "
            "{\"stages\": [1, 2], \"ok\": true}},\n"
            "    {\"shards\": 1, \"share\": 0.25, \"profile\": "
            "{\"stages\": [1, 2], \"ok\": true}},\n"
            "    {\"shards\": 2, \"share\": 1.00, \"profile\": "
            "{\"stages\": [1, 2], \"ok\": true}}\n"
            "  ],\n"
            "  \"more\": [\n"
            "  ],\n"
            "  \"ok\": true\n"
            "}\n");
}

// ----------------------------------------------------- order statistics --

TEST(BenchHarnessStats, MedianByTakesIndexHalfN) {
  EXPECT_EQ(bench::median_by(std::vector<double>{5.0}), 5.0);
  EXPECT_EQ(bench::median_by(std::vector<double>{9.0, 1.0, 5.0}), 5.0);
  // Even n: index n/2 of the ordered sample, the upper middle element.
  EXPECT_EQ(bench::median_by(std::vector<double>{4.0, 1.0, 3.0, 2.0}), 3.0);

  struct Run {
    double pps;
    int id;
  };
  const Run mid = bench::median_by(
      std::vector<Run>{{30.0, 0}, {10.0, 1}, {20.0, 2}, {40.0, 3}},
      &Run::pps);
  EXPECT_EQ(mid.id, 0) << "ordered 10,20,30,40: index 2 is pps 30";
}

TEST(BenchHarnessStats, PercentileRoundsRankDown) {
  std::vector<float> v{5, 1, 4, 2, 3};
  EXPECT_EQ(bench::percentile(v, 0.50), 3.0);
  EXPECT_EQ(bench::percentile(v, 0.99), 4.0) << "rank 0.99*4 = 3";
  EXPECT_EQ(bench::percentile(v, 1.0), 5.0);
  std::vector<float> empty;
  EXPECT_EQ(bench::percentile(empty, 0.5), 0.0);
}

// ----------------------------------------------------- output and gates --

TEST(BenchHarnessOutput, WriteFileFailsForAnUnwritablePath) {
  EXPECT_FALSE(bench::write_file("/nonexistent-dir/x.json", "{}\n"));
}

TEST(BenchHarnessOutput, WriteFileRoundTrips) {
  const std::string path = ::testing::TempDir() + "bench_harness_out.json";
  ASSERT_TRUE(bench::write_file(path, "{\"a\": 1}\n"));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[32] = {};
  const std::size_t n = std::fread(buf, 1, sizeof buf - 1, f);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(std::string(buf, n), "{\"a\": 1}\n");
}

TEST(BenchHarnessGates, CountsViolationsAndGivesTheExitCode) {
  bench::Gates gates("bench_x");
  EXPECT_TRUE(gates.check(true, "holds", "unused %d", 1));
  EXPECT_TRUE(gates.ok());
  EXPECT_EQ(gates.exit_code(), 0);
  EXPECT_FALSE(gates.check(false, "first", "value %.1f < %d", 0.5, 1));
  EXPECT_FALSE(gates.check(false, "second", "broken"));
  EXPECT_FALSE(gates.ok());
  EXPECT_EQ(gates.exit_code(), 1);
  EXPECT_TRUE(gates.check(true, "later", "a later pass clears nothing"));
  EXPECT_EQ(gates.exit_code(), 1);
}

}  // namespace
