// Thread-scaling benchmark for the sparse SimRank engine: runs it across
// a list of thread counts on a seeded synthetic click graph, prints
// per-count wall time and speedup, and cross-checks that every thread
// count exported bit-identical scores (exit 1 if not).
//
// Vendored timing harness (perf_harness.h) — deliberately no
// google-benchmark dependency so CI can always execute it.
//
//   bench_perf_threads [--smoke] [--threads 1,2,4,8] [--repeats N]
//
// --smoke shrinks the graphs and repeats so the binary finishes in a few
// seconds; CI runs it as an executable smoke test.
#include <cstdio>
#include <string>
#include <vector>

#include "core/sparse_engine.h"
#include "perf_harness.h"
#include "synth/click_graph_generator.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace simrankpp {
namespace {

BipartiteGraph BenchGraph(size_t num_queries) {
  GeneratorOptions options;
  options.num_queries = num_queries;
  options.num_ads = num_queries / 3;
  options.taxonomy.num_categories = 16;
  options.taxonomy.subtopics_per_category = 10;
  options.mean_impressions_per_query = 25.0;
  options.seed = 99;
  auto world = GenerateClickGraph(options);
  SRPP_CHECK(world.ok());
  return std::move(world)->graph;
}

SimRankOptions BenchOptions(size_t num_threads) {
  SimRankOptions options;
  options.variant = SimRankVariant::kSimRank;
  options.iterations = 5;
  options.prune_threshold = 1e-4;
  options.max_partners_per_node = 200;
  options.num_threads = num_threads;
  return options;
}

struct Sample {
  size_t threads = 0;
  double best_seconds = 0.0;
  SimilarityMatrix query_scores;
  SimilarityMatrix ad_scores;
};

std::vector<Sample> RunScaling(const BipartiteGraph& graph,
                               const std::vector<size_t>& thread_counts,
                               size_t repeats) {
  std::vector<Sample> samples;
  for (size_t threads : thread_counts) {
    Sample sample;
    sample.threads = threads;
    for (size_t r = 0; r < repeats; ++r) {
      SparseSimRankEngine engine(BenchOptions(threads));
      Stopwatch timer;
      SRPP_CHECK(engine.Run(graph).ok());
      double elapsed = timer.ElapsedSeconds();
      if (r == 0 || elapsed < sample.best_seconds) {
        sample.best_seconds = elapsed;
      }
      if (r == 0) {
        sample.query_scores = engine.ExportQueryScores(0.0);
        sample.ad_scores = engine.ExportAdScores(0.0);
      }
    }
    samples.push_back(std::move(sample));
  }
  return samples;
}

// Prints the table and returns false when any thread count diverged from
// the single-thread export (the determinism guarantee).
bool Report(const BipartiteGraph& graph, const std::vector<Sample>& samples) {
  TablePrinter table(StringPrintf("sparse engine, %zu queries / %zu edges",
                                  graph.num_queries(), graph.num_edges()));
  table.SetHeader({"threads", "best ms", "speedup", "identical"});
  bool all_identical = true;
  const Sample& base = samples.front();
  for (const Sample& sample : samples) {
    bool identical =
        sample.query_scores.num_pairs() == base.query_scores.num_pairs() &&
        sample.query_scores.MaxAbsDifference(base.query_scores) == 0.0 &&
        sample.ad_scores.num_pairs() == base.ad_scores.num_pairs() &&
        sample.ad_scores.MaxAbsDifference(base.ad_scores) == 0.0;
    all_identical = all_identical && identical;
    table.AddRow({std::to_string(sample.threads),
                  FormatDouble(sample.best_seconds * 1e3, 1),
                  FormatDouble(base.best_seconds / sample.best_seconds, 2),
                  identical ? "yes" : "NO"});
  }
  table.Print();
  return all_identical;
}

int Main(int argc, char** argv) {
  bool smoke = bench::HasFlag(argc, argv, "--smoke");
  std::vector<size_t> thread_counts = bench::ParseSizeList(
      bench::FlagValue(argc, argv, "--threads", smoke ? "1,2" : "1,2,4,8"));
  const char* usage =
      "bench_perf_threads [--smoke] [--threads 1,2,4,8] [--repeats N]";
  const size_t repeats =
      bench::RepeatsFlag(argc, argv, smoke ? "1" : "3", usage);
  if (thread_counts.empty()) {
    std::fprintf(stderr, "usage: %s\n", usage);
    return 2;
  }

  BipartiteGraph graph = BenchGraph(smoke ? 500 : 4000);
  if (!Report(graph, RunScaling(graph, thread_counts, repeats))) {
    std::fprintf(stderr,
                 "FAIL: exported scores differ across thread counts\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace simrankpp

int main(int argc, char** argv) { return simrankpp::Main(argc, argv); }
