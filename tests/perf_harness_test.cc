// Flag parsing of the shared bench harness (bench/perf_harness.h). The
// benches themselves are not part of the default build, so the strict
// --repeats and size-list parses are pinned here.
#include <gtest/gtest.h>

#include <vector>

#include "perf_harness.h"

namespace simrankpp {
namespace {

constexpr char kUsage[] = "bench_x [--repeats N]";

size_t Repeats(std::vector<const char*> args) {
  args.insert(args.begin(), "bench_x");
  return bench::RepeatsFlag(static_cast<int>(args.size()),
                            const_cast<char**>(args.data()), "3", kUsage);
}

TEST(PerfHarnessTest, ParseSizeListReadsEveryElement) {
  EXPECT_EQ(bench::ParseSizeList("1,2,4,8"),
            (std::vector<size_t>{1, 2, 4, 8}));
  EXPECT_EQ(bench::ParseSizeList("16"), (std::vector<size_t>{16}));
}

TEST(PerfHarnessTest, ParseSizeListRejectsMalformedElement) {
  for (const char* spec : {"1,x", "1,,2", "-1", "3x", "1,2,"}) {
    EXPECT_TRUE(bench::ParseSizeList(spec).empty()) << spec;
  }
}

TEST(PerfHarnessTest, RepeatsFlagReadsValueOrFallback) {
  EXPECT_EQ(Repeats({"--repeats", "7"}), 7u);
  EXPECT_EQ(Repeats({"--smoke"}), 3u);
}

TEST(PerfHarnessTest, RepeatsFlagExitsTwoOnBadValue) {
  for (const char* value : {"0", "-1", "3x", ""}) {
    EXPECT_EXIT(Repeats({"--repeats", value}), ::testing::ExitedWithCode(2),
                "usage: bench_x")
        << value;
  }
}

}  // namespace
}  // namespace simrankpp
