// Supporting-substrate micro-benchmarks on the vendored timing harness
// (perf_harness.h, no google-benchmark dependency): click-graph
// generation, graph rebuild, PPR push, Pearson all-pairs, Porter
// stemming, and the snapshot save/load path the serving split rides on.
//
//   bench_perf_components [--smoke] [--repeats N]
#include <cstdio>
#include <string>

#include "core/pearson.h"
#include "core/snapshot.h"
#include "graph/graph_builder.h"
#include "partition/ppr.h"
#include "perf_harness.h"
#include "synth/click_graph_generator.h"
#include "text/porter_stemmer.h"
#include "util/logging.h"

namespace simrankpp {
namespace {

BipartiteGraph SharedGraph(bool smoke) {
  GeneratorOptions options;
  options.num_queries = smoke ? 1500 : 8000;
  options.num_ads = smoke ? 500 : 2500;
  options.taxonomy.num_categories = 24;
  options.taxonomy.subtopics_per_category = 12;
  options.mean_impressions_per_query = 25.0;
  options.seed = 77;
  auto world = GenerateClickGraph(options);
  SRPP_CHECK(world.ok());
  return std::move(world)->graph;
}

int Main(int argc, char** argv) {
  bool smoke = bench::HasFlag(argc, argv, "--smoke");
  const size_t repeats = bench::RepeatsFlag(
      argc, argv, smoke ? "1" : "3",
      "bench_perf_components [--smoke] [--repeats N]");

  BipartiteGraph graph = SharedGraph(smoke);
  bench::PerfTable table(
      "component benchmarks, shared graph " +
          std::to_string(graph.num_queries()) + "q/" +
          std::to_string(graph.num_edges()) + "e",
      repeats);

  for (size_t size : smoke ? std::vector<size_t>{2000}
                           : std::vector<size_t>{2000, 8000}) {
    table.Run("generate/" + std::to_string(size), [&] {
      GeneratorOptions options;
      options.num_queries = size;
      options.num_ads = size / 3;
      options.taxonomy.num_categories = 16;
      options.taxonomy.subtopics_per_category = 10;
      options.seed = 5;
      auto world = GenerateClickGraph(options);
      SRPP_CHECK(world.ok());
      return std::to_string(world->graph.num_edges()) + " edges";
    });
  }

  table.Run("graph rebuild", [&] {
    GraphBuilder builder;
    SRPP_CHECK(builder.AddGraph(graph).ok());
    auto rebuilt = builder.Build();
    SRPP_CHECK(rebuilt.ok());
    return std::to_string(rebuilt->num_edges()) + " edges";
  });

  for (double epsilon : {1e-5, 1e-7}) {
    char name[32];
    std::snprintf(name, sizeof(name), "ppr push eps=%g", epsilon);
    table.Run(name, [&] {
      PprOptions options;
      options.epsilon = epsilon;
      auto ppr = ApproximatePersonalizedPageRank(graph, 0, options);
      return "support=" + std::to_string(ppr.size());
    });
  }

  table.Run("pearson all-pairs", [&] {
    SimilarityMatrix matrix = ComputePearsonSimilarities(graph);
    return "pairs=" + std::to_string(matrix.num_pairs());
  });

  table.Run("porter stemmer x1M", [&] {
    const char* words[] = {"cameras",     "relational",   "vietnamization",
                           "adjustable",  "hopefulness",  "batteries",
                           "controlling", "conflated",    "sensibilities",
                           "photography", "troubleshoot", "electricity"};
    size_t total = 0;
    for (size_t i = 0; i < 1000000; ++i) {
      total += PorterStem(words[i % 12]).size();
    }
    return "chars=" + std::to_string(total);
  });

  // Snapshot save/load round trip over the Pearson scores: the on-disk
  // path a serving process pays at startup.
  {
    SimilarityMatrix scores = ComputePearsonSimilarities(graph);
    std::string path = "/tmp/bench_perf_components.snapshot";
    table.Run("snapshot save", [&] {
      SRPP_CHECK(SaveSnapshot(scores, "Pearson", path).ok());
      return "pairs=" + std::to_string(scores.num_pairs());
    });
    table.Run("snapshot load", [&] {
      auto loaded = LoadSnapshot(path);
      SRPP_CHECK(loaded.ok());
      return "pairs=" + std::to_string(loaded->matrix.num_pairs());
    });
    std::remove(path.c_str());
  }

  table.Print();
  return 0;
}

}  // namespace
}  // namespace simrankpp

int main(int argc, char** argv) { return simrankpp::Main(argc, argv); }
