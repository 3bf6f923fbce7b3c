// In-process tests of the simrankpp CLI (tools/cli.cc): argument-parsing
// failures by subcommand, a TSV round-trip driving
// generate -> stats -> similar, and the multi-tenant serving round trip
// (compute both sides -> manifest -> serve-multi -> hot swap).
#include "cli.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/snapshot.h"
#include "graph/graph_io.h"

namespace simrankpp {
namespace {

// Builds a mutable argv (the CLI takes char**) and runs the CLI.
int RunCliWith(std::vector<std::string> args) {
  args.insert(args.begin(), "simrankpp");
  std::vector<std::vector<char>> storage;
  storage.reserve(args.size());
  std::vector<char*> argv;
  for (const std::string& arg : args) {
    storage.emplace_back(arg.begin(), arg.end());
    storage.back().push_back('\0');
    argv.push_back(storage.back().data());
  }
  return RunCli(static_cast<int>(argv.size()), argv.data());
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(CliArgsTest, NoArgumentsIsUsageError) { EXPECT_EQ(RunCliWith({}), 2); }

TEST(CliArgsTest, UnknownCommandIsUsageError) {
  EXPECT_EQ(RunCliWith({"frobnicate"}), 2);
  EXPECT_EQ(RunCliWith({"frobnicate", "graph.tsv"}), 2);
}

TEST(CliArgsTest, CommandsRequiringAPathRejectBareInvocation) {
  EXPECT_EQ(RunCliWith({"stats"}), 2);
  EXPECT_EQ(RunCliWith({"similar"}), 2);
  EXPECT_EQ(RunCliWith({"rewrite"}), 2);
  EXPECT_EQ(RunCliWith({"extract"}), 2);
}

TEST(CliArgsTest, GenerateWithoutOutIsUsageError) {
  EXPECT_EQ(RunCliWith({"generate"}), 2);
  EXPECT_EQ(RunCliWith({"generate", "--queries", "100"}), 2);
}

TEST(CliArgsTest, SimilarWithoutQueryIsUsageError) {
  EXPECT_EQ(RunCliWith({"similar", "graph.tsv"}), 2);
  EXPECT_EQ(RunCliWith({"rewrite", "graph.tsv"}), 2);
}

TEST(CliArgsTest, ServeMultiRequiresManifestAndQueries) {
  EXPECT_EQ(RunCliWith({"serve-multi"}), 2);
  EXPECT_EQ(RunCliWith({"serve-multi", "--manifest", "m.txt"}), 2);
  EXPECT_EQ(RunCliWith({"serve-multi", "--queries", "q.tsv"}), 2);
}

TEST(CliArgsTest, ComputeRejectsUnknownSide) {
  EXPECT_EQ(RunCliWith({"compute", "graph.tsv", "--snapshot-out", "s.snap",
                        "--side", "diagonal"}),
            2);
}

// A name the registry does not know fails the run, and the error lists
// the engines that are registered.
TEST(CliArgsTest, ComputeRejectsUnregisteredEngine) {
  const std::string graph = TempPath("unregistered_engine.tsv");
  ASSERT_EQ(RunCliWith({"generate", "--queries", "40", "--ads", "15", "--seed",
                        "3", "--out", graph}),
            0);
  ::testing::internal::CaptureStderr();
  const int code = RunCliWith({"compute", graph, "--snapshot-out",
                               TempPath("unregistered_engine.snap"),
                               "--engine", "dense"});
  const std::string err = ::testing::internal::GetCapturedStderr();
  std::remove(graph.c_str());
  EXPECT_EQ(code, 1);
  EXPECT_NE(err.find("unknown engine \"dense\" (registered: linearized, "
                     "sparse)"),
            std::string::npos)
      << err;
}

TEST(CliArgsTest, ManifestInfoOnMissingFileIsRuntimeError) {
  EXPECT_EQ(RunCliWith({"manifest-info", TempPath("no_manifest.txt")}), 1);
}

// serve-daemon checks every numeric flag before it loads the manifest.
// With a missing manifest a valid value ends in the manifest error (exit
// 1) and a bad one in a usage error (exit 2), so each case shows the
// value was rejected rather than wrapped or read as 0.
int ServeDaemonWith(std::vector<std::string> flags) {
  std::vector<std::string> args = {"serve-daemon", "--manifest",
                                   TempPath("no_daemon_manifest.txt")};
  args.insert(args.end(), flags.begin(), flags.end());
  return RunCliWith(args);
}

TEST(CliArgsTest, ServeDaemonValidFlagsReachTheManifestError) {
  EXPECT_EQ(ServeDaemonWith({}), 1);
  EXPECT_EQ(ServeDaemonWith({"--port", "65535", "--metrics-port", "-1",
                             "--max-queue", "1", "--cold-row-cost", "1",
                             "--qps", "0", "--burst", "1", "--poll-interval",
                             "0.01", "--slow-request-ms", "0"}),
            1);
}

TEST(CliArgsTest, ServeDaemonRejectsOutOfRangePorts) {
  EXPECT_EQ(ServeDaemonWith({"--port", "70000"}), 2);
  EXPECT_EQ(ServeDaemonWith({"--port", "-1"}), 2);
  EXPECT_EQ(ServeDaemonWith({"--port", "80x"}), 2);
  EXPECT_EQ(ServeDaemonWith({"--metrics-port", "70000"}), 2);
  EXPECT_EQ(ServeDaemonWith({"--metrics-port", "-2"}), 2);
}

TEST(CliArgsTest, ServeDaemonRejectsEmptyQueueAndBucketBounds) {
  EXPECT_EQ(ServeDaemonWith({"--max-queue", "0"}), 2);
  EXPECT_EQ(ServeDaemonWith({"--max-queue", "-5"}), 2);
  EXPECT_EQ(ServeDaemonWith({"--cold-row-cost", "0"}), 2);
  EXPECT_EQ(ServeDaemonWith({"--qps", "-1"}), 2);
  EXPECT_EQ(ServeDaemonWith({"--qps", "fast"}), 2);
  EXPECT_EQ(ServeDaemonWith({"--burst", "0.5"}), 2);
}

TEST(CliArgsTest, ServeDaemonRejectsBadDurations) {
  EXPECT_EQ(ServeDaemonWith({"--poll-interval", "abc"}), 2);
  EXPECT_EQ(ServeDaemonWith({"--poll-interval", "0"}), 2);
  EXPECT_EQ(ServeDaemonWith({"--poll-interval", "1s"}), 2);
  EXPECT_EQ(ServeDaemonWith({"--slow-request-ms", "-1"}), 2);
  EXPECT_EQ(ServeDaemonWith({"--slow-request-ms", "inf"}), 2);
}

// The other subcommands parse their numeric flags just as strictly,
// before any input is read: against a missing graph a valid value ends
// in the file error (exit 1) and a bad one in a usage error (exit 2), so
// each case shows the value was rejected rather than wrapped or read as 0.
TEST(CliArgsTest, GenerateRejectsBadCounts) {
  const std::string out = TempPath("never_generated.tsv");
  for (const std::vector<std::string>& flags :
       std::vector<std::vector<std::string>>{{"--queries", "0"},
                                             {"--queries", "-5"},
                                             {"--ads", "12k"},
                                             {"--ads", ""},
                                             {"--seed", "-1"}}) {
    std::vector<std::string> args = {"generate", "--out", out};
    args.insert(args.end(), flags.begin(), flags.end());
    EXPECT_EQ(RunCliWith(args), 2) << flags[0] << " " << flags[1];
  }
  std::ifstream never(out);
  EXPECT_FALSE(never.good());
}

TEST(CliArgsTest, TopMustBeAPositiveCount) {
  const std::string graph = TempPath("no_top_graph.tsv");
  EXPECT_EQ(RunCliWith({"similar", graph, "--query", "q", "--top", "3"}), 1);
  for (const char* bad : {"-1", "0", "ten", "5.5"}) {
    EXPECT_EQ(RunCliWith({"similar", graph, "--query", "q", "--top", bad}), 2)
        << bad;
    EXPECT_EQ(RunCliWith({"serve-eval", graph, "--snapshot-in", "s.snap",
                          "--top", bad}),
              2)
        << bad;
    EXPECT_EQ(RunCliWith({"serve-multi", "--manifest", "m.txt", "--queries",
                          "q.tsv", "--top", bad}),
              2)
        << bad;
  }
}

TEST(CliArgsTest, ComputeRejectsBadThreadsAndMinScore) {
  auto compute = [](std::vector<std::string> flags) {
    std::vector<std::string> args = {"compute", TempPath("no_compute.tsv"),
                                     "--snapshot-out", "s.snap"};
    args.insert(args.end(), flags.begin(), flags.end());
    return RunCliWith(args);
  };
  EXPECT_EQ(compute({"--method", "simrank", "--threads", "4", "--min-score",
                     "0"}),
            1);
  EXPECT_EQ(compute({"--threads", "-1"}), 2);
  EXPECT_EQ(compute({"--threads", "2x"}), 2);
  EXPECT_EQ(compute({"--min-score", "-0.1"}), 2);
  EXPECT_EQ(compute({"--min-score", "nan"}), 2);
  EXPECT_EQ(compute({"--min-score", "1e-6x"}), 2);
}

TEST(CliArgsTest, ExtractRejectsBadSubgraphCount) {
  const std::string graph = TempPath("no_extract_graph.tsv");
  EXPECT_EQ(RunCliWith({"extract", graph, "--subgraphs", "2"}), 1);
  EXPECT_EQ(RunCliWith({"extract", graph, "--subgraphs", "0"}), 2);
  EXPECT_EQ(RunCliWith({"extract", graph, "--subgraphs", "-3"}), 2);
}

TEST(CliArgsTest, MissingGraphFileIsRuntimeError) {
  EXPECT_EQ(RunCliWith({"stats", TempPath("no_such_graph.tsv")}), 1);
}

class CliRoundTripTest : public ::testing::Test {
 protected:
  // generate once for the whole suite; stats/similar read the artifact.
  static void SetUpTestSuite() {
    graph_path_ = new std::string(TempPath("cli_round_trip.tsv"));
    ASSERT_EQ(RunCliWith({"generate", "--queries", "1200", "--ads", "400", "--seed",
                   "11", "--out", *graph_path_}),
              0);
  }

  static void TearDownTestSuite() {
    std::remove(graph_path_->c_str());
    delete graph_path_;
    graph_path_ = nullptr;
  }

  static std::string* graph_path_;
};

std::string* CliRoundTripTest::graph_path_ = nullptr;

TEST_F(CliRoundTripTest, GeneratedTsvLoadsBack) {
  Result<BipartiteGraph> graph = LoadGraph(*graph_path_);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  // The generator keeps only queries that actually received clicks, so
  // the realized count sits below the requested 1200.
  EXPECT_GT(graph->num_queries(), 100u);
  EXPECT_LE(graph->num_queries(), 1200u);
  EXPECT_GT(graph->num_edges(), graph->num_queries());
}

TEST_F(CliRoundTripTest, StatsReadsGeneratedGraph) {
  EXPECT_EQ(RunCliWith({"stats", *graph_path_}), 0);
}

TEST_F(CliRoundTripTest, SimilarFindsNeighborsForARealQuery) {
  Result<BipartiteGraph> graph = LoadGraph(*graph_path_);
  ASSERT_TRUE(graph.ok());
  const std::string& query = graph->query_label(0);
  EXPECT_EQ(RunCliWith({"similar", *graph_path_, "--query", query, "--method",
                 "simrank", "--top", "5"}),
            0);
}

// A negative --top used to wrap to SIZE_MAX and list every partner.
TEST_F(CliRoundTripTest, SimilarRejectsNegativeTop) {
  Result<BipartiteGraph> graph = LoadGraph(*graph_path_);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(RunCliWith({"similar", *graph_path_, "--query",
                        graph->query_label(0), "--top", "-1"}),
            2);
}

TEST_F(CliRoundTripTest, SimilarUnknownQueryFails) {
  EXPECT_EQ(RunCliWith({"similar", *graph_path_, "--query",
                 "query text that the generator cannot emit"}),
            1);
}

TEST_F(CliRoundTripTest, SimilarUnknownMethodFails) {
  Result<BipartiteGraph> graph = LoadGraph(*graph_path_);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(RunCliWith({"similar", *graph_path_, "--query", graph->query_label(0),
                 "--method", "bogus"}),
            1);
}

// Multi-tenant serving round trip over the shared generated graph:
// compute a query-query and an ad-ad snapshot, describe both tenants in
// one manifest, validate it, serve a mixed batch, then hot-swap one
// tenant's snapshot and serve again.
class CliServeMultiTest : public CliRoundTripTest {
 protected:
  void SetUp() override {
    stem_ = TempPath(
        std::string("cli_serve_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    qq_snap_ = stem_ + "_qq.snap";
    ad_snap_ = stem_ + "_ad.snap";
    manifest_ = stem_ + "_manifest.txt";
    queries_ = stem_ + "_queries.tsv";
    out_ = stem_ + "_out.tsv";
    ASSERT_EQ(RunCliWith({"compute", *graph_path_, "--method", "weighted",
                          "--snapshot-out", qq_snap_}),
              0);
    ASSERT_EQ(RunCliWith({"compute", *graph_path_, "--method", "simrank",
                          "--side", "ad", "--snapshot-out", ad_snap_}),
              0);
    std::ofstream(manifest_) << "manifest-version 1\n"
                             << "tenant web\n  graph " << *graph_path_
                             << "\n  snapshot " << qq_snap_ << "\n"
                             << "tenant ads\n  graph " << *graph_path_
                             << "\n  snapshot " << ad_snap_
                             << "\n  side ad-ad\n";
    Result<BipartiteGraph> graph = LoadGraph(*graph_path_);
    ASSERT_TRUE(graph.ok());
    std::ofstream queries(queries_);
    for (QueryId q = 0; q < 5; ++q) {
      queries << "web\t" << graph->query_label(q) << "\n";
    }
    queries << "ads\t" << graph->ad_label(0) << "\n";
  }

  void TearDown() override {
    for (const std::string& path :
         {qq_snap_, ad_snap_, manifest_, queries_, out_}) {
      std::remove(path.c_str());
    }
  }

  std::string ReadOut() {
    std::ifstream in(out_);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  std::string stem_, qq_snap_, ad_snap_, manifest_, queries_, out_;
};

// --batch defaults to the graph's query count, so it is checked once
// the graph is loaded (and before the snapshot is).
TEST_F(CliServeMultiTest, ServeEvalChecksBatch) {
  EXPECT_EQ(RunCliWith({"serve-eval", *graph_path_, "--snapshot-in", qq_snap_,
                        "--batch", "20"}),
            0);
  EXPECT_EQ(RunCliWith({"serve-eval", *graph_path_, "--snapshot-in", qq_snap_,
                        "--batch", "-1"}),
            2);
  EXPECT_EQ(RunCliWith({"serve-eval", *graph_path_, "--snapshot-in", qq_snap_,
                        "--batch", "all"}),
            2);
}

TEST_F(CliServeMultiTest, AdSideSnapshotReportsItsTag) {
  Result<SnapshotInfo> info = ReadSnapshotInfo(ad_snap_);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->side, SnapshotSide::kAdAd);
  EXPECT_EQ(RunCliWith({"snapshot-info", ad_snap_}), 0);
}

TEST_F(CliServeMultiTest, SnapshotInfoFailsCleanlyOnCorruptFile) {
  // Flip one payload byte: checksum catches it, exit is nonzero.
  std::ifstream in(qq_snap_, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x20);
  std::ofstream(qq_snap_, std::ios::binary | std::ios::trunc) << bytes;
  EXPECT_EQ(RunCliWith({"snapshot-info", qq_snap_}), 1);
  EXPECT_EQ(RunCliWith({"manifest-info", manifest_}), 1);
}

TEST_F(CliServeMultiTest, ManifestInfoValidatesBothTenants) {
  EXPECT_EQ(RunCliWith({"manifest-info", manifest_}), 0);
}

TEST_F(CliServeMultiTest, OnDemandTenantValidatesAndServes) {
  // A snapshotless "scoring on-demand" tenant has nothing on disk to
  // validate — manifest-info must report it ok, and serve-multi must
  // answer its queries through the lazy engine path.
  std::ofstream(manifest_, std::ios::app)
      << "tenant lazy\n  graph " << *graph_path_
      << "\n  scoring on-demand\n";
  EXPECT_EQ(RunCliWith({"manifest-info", manifest_}), 0);

  Result<BipartiteGraph> graph = LoadGraph(*graph_path_);
  ASSERT_TRUE(graph.ok());
  std::ofstream(queries_, std::ios::trunc)
      << "lazy\t" << graph->query_label(0) << "\n";
  ASSERT_EQ(RunCliWith({"serve-multi", "--manifest", manifest_, "--queries",
                        queries_, "--top", "3", "--out", out_}),
            0);
  EXPECT_NE(ReadOut().find("lazy\t"), std::string::npos);
}

TEST_F(CliServeMultiTest, ServesBatchAndHotSwapChangesOneTenantOnly) {
  ASSERT_EQ(RunCliWith({"serve-multi", "--manifest", manifest_, "--queries",
                        queries_, "--top", "3", "--out", out_}),
            0);
  std::string first = ReadOut();
  ASSERT_FALSE(first.empty());
  // Every request line produced at least one TSV row, tagged by tenant.
  EXPECT_NE(first.find("web\t"), std::string::npos);
  EXPECT_NE(first.find("ads\t"), std::string::npos);

  // Swap the web tenant's snapshot to a different method; the ads rows
  // must be byte-identical, the web rows must change.
  ASSERT_EQ(RunCliWith({"compute", *graph_path_, "--method", "evidence",
                        "--snapshot-out", qq_snap_}),
            0);
  ASSERT_EQ(RunCliWith({"serve-multi", "--manifest", manifest_, "--queries",
                        queries_, "--top", "3", "--out", out_}),
            0);
  std::string second = ReadOut();
  auto rows_of = [](const std::string& text, const std::string& prefix) {
    std::string rows;
    size_t pos = 0;
    while (pos < text.size()) {
      size_t end = text.find('\n', pos);
      if (end == std::string::npos) end = text.size();
      std::string line = text.substr(pos, end - pos);
      if (line.rfind(prefix, 0) == 0) rows += line + "\n";
      pos = end + 1;
    }
    return rows;
  };
  EXPECT_EQ(rows_of(first, "ads\t"), rows_of(second, "ads\t"));
  EXPECT_NE(rows_of(first, "web\t"), rows_of(second, "web\t"));
}

TEST_F(CliServeMultiTest, ReloadTriggerAndPollRun) {
  EXPECT_EQ(RunCliWith({"serve-multi", "--manifest", manifest_, "--queries",
                        queries_, "--reload", "web", "--poll", "--out",
                        out_}),
            0);
  EXPECT_EQ(RunCliWith({"serve-multi", "--manifest", manifest_, "--queries",
                        queries_, "--reload", "nobody"}),
            1);
}

TEST_F(CliServeMultiTest, UnknownTenantInQueriesFileFails) {
  std::ofstream(queries_) << "ghost\tanything\n";
  EXPECT_EQ(RunCliWith({"serve-multi", "--manifest", manifest_, "--queries",
                        queries_}),
            1);
}

}  // namespace
}  // namespace simrankpp
