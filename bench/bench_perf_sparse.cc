// Sparse-engine hot-path benchmark: the bench_perf_engines sparse configs
// run at 10 iterations (where per-iteration costs dominate setup), all
// three variants, plus the incremental/full-rescore toggle. This is the
// before/after yardstick for the PR 4 flattening work (CSR candidate
// index + flat pair-store + delta-driven rescoring); the measured tables
// live in docs/BENCHMARKS.md.
//
//   bench_perf_sparse [--smoke] [--repeats N] [--json <path>]
#include <cstdio>
#include <string>
#include <vector>

#include "core/sparse_engine.h"
#include "perf_harness.h"
#include "synth/click_graph_generator.h"
#include "util/logging.h"

namespace simrankpp {
namespace {

// Identical generator settings to bench_perf_engines so the numbers are
// comparable across the two binaries.
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

SimRankOptions BenchOptions(SimRankVariant variant) {
  SimRankOptions options;
  options.variant = variant;
  options.iterations = 10;
  options.prune_threshold = 1e-4;
  options.max_partners_per_node = 200;
  return options;
}

std::string GraphNote(const BipartiteGraph& graph) {
  return std::to_string(graph.num_queries()) + "q/" +
         std::to_string(graph.num_edges()) + "e";
}

int Main(int argc, char** argv) {
  bool smoke = bench::HasFlag(argc, argv, "--smoke");
  const size_t repeats = bench::RepeatsFlag(
      argc, argv, smoke ? "1" : "3",
      "bench_perf_sparse [--smoke] [--repeats N] [--json <path>]");
  const char* json_path = bench::FlagValue(argc, argv, "--json", "");
  bench::JsonReport report;

  // Plain SimRank across sizes, 10 iterations.
  {
    bench::PerfTable table("sparse engine, plain SimRank, 10 iterations",
                           repeats);
    for (size_t size : smoke ? std::vector<size_t>{500}
                             : std::vector<size_t>{500, 1500, 4000}) {
      BipartiteGraph graph = BenchGraph(size);
      table.Run("sparse10/" + std::to_string(size), [&] {
        SparseSimRankEngine engine(BenchOptions(SimRankVariant::kSimRank));
        SRPP_CHECK(engine.Run(graph).ok());
        return GraphNote(graph);
      });
    }
    table.Print();
    report.Add(table);
  }

  // Variants on one graph, 10 iterations.
  {
    BipartiteGraph graph = BenchGraph(smoke ? 500 : 1500);
    bench::PerfTable table(
        "sparse engine variants, 10 iterations, " + GraphNote(graph), repeats);
    for (SimRankVariant variant :
         {SimRankVariant::kSimRank, SimRankVariant::kEvidence,
          SimRankVariant::kWeighted}) {
      table.Run(SimRankVariantName(variant), [&] {
        SparseSimRankEngine engine(BenchOptions(variant));
        SRPP_CHECK(engine.Run(graph).ok());
        return std::string("pairs=") +
               std::to_string(engine.stats().query_pairs);
      });
    }
    table.Print();
    report.Add(table);
  }

  // Delta-driven rescoring on/off. With convergence_epsilon left at 0 the
  // two runs are bit-identical; the incremental run just skips recomputing
  // pairs whose opposite-side neighborhood did not change.
  {
    BipartiteGraph graph = BenchGraph(smoke ? 500 : 1500);
    bench::PerfTable table(
        "delta-driven rescoring, 10 iterations, " + GraphNote(graph), repeats);
    for (bool incremental : {true, false}) {
      SimRankOptions options = BenchOptions(SimRankVariant::kSimRank);
      options.incremental = incremental;
      table.Run(incremental ? "incremental" : "full-rescore", [&] {
        SparseSimRankEngine engine(options);
        SRPP_CHECK(engine.Run(graph).ok());
        return "rescored=" + std::to_string(engine.stats().rescored_pairs) +
               " reused=" + std::to_string(engine.stats().reused_pairs);
      });
    }
    table.Print();
    report.Add(table);
  }

  if (json_path[0] != '\0' && !report.WriteFile(json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace simrankpp

int main(int argc, char** argv) { return simrankpp::Main(argc, argv); }
