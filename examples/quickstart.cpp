// Quickstart: build the paper's Figure 3 click graph by hand, run all
// three SimRank variants plus the Pearson baseline, and print the
// similarity scores and top rewrites for "camera".
//
// Build & run:
//   cmake -B build -S . -DSIMRANKPP_BUILD_EXAMPLES=ON
//   cmake --build build --target example_quickstart
//   ./build/examples/example_quickstart
#include <cstdio>

#include "core/pearson.h"
#include "core/sample_graphs.h"
#include "core/sparse_engine.h"
#include "graph/graph_builder.h"
#include "rewrite/rewrite_service.h"
#include "util/string_util.h"
#include "util/table_printer.h"

using namespace simrankpp;

int main() {
  // 1. The click graph of Figure 3: five queries, four ads, eight edges.
  //    (MakeFigure3Graph() builds the same thing; shown expanded here so
  //    the quickstart demonstrates GraphBuilder.)
  GraphBuilder builder;
  for (auto [query, ad] : {std::pair{"pc", "hp.com"},
                           {"camera", "hp.com"},
                           {"camera", "bestbuy.com"},
                           {"digital camera", "hp.com"},
                           {"digital camera", "bestbuy.com"},
                           {"tv", "bestbuy.com"},
                           {"flower", "teleflora.com"},
                           {"flower", "orchids.com"}}) {
    if (Status status = builder.AddClick(query, ad); !status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
  }
  Result<BipartiteGraph> graph_result = builder.Build();
  if (!graph_result.ok()) {
    std::fprintf(stderr, "%s\n", graph_result.status().ToString().c_str());
    return 1;
  }
  BipartiteGraph graph = std::move(graph_result).value();
  std::printf("Click graph: %zu queries, %zu ads, %zu edges\n\n",
              graph.num_queries(), graph.num_ads(), graph.num_edges());

  // 2. Run the three SimRank variants on the sparse engine in exact mode
  //    (no score pruning, no per-node partner cap).
  const SimRankVariant variants[] = {SimRankVariant::kSimRank,
                                     SimRankVariant::kEvidence,
                                     SimRankVariant::kWeighted};
  const char* queries[] = {"pc", "camera", "digital camera", "tv", "flower"};
  for (SimRankVariant variant : variants) {
    SimRankOptions options;
    options.variant = variant;
    options.iterations = 25;  // effectively converged on this tiny graph
    options.prune_threshold = 0.0;
    options.max_partners_per_node = 0;
    SparseSimRankEngine engine(options);
    if (Status status = engine.Run(graph); !status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    TablePrinter table(std::string("Query-query similarity: ") +
                       SimRankVariantName(variant));
    std::vector<std::string> header = {""};
    for (const char* q : queries) header.push_back(q);
    table.SetHeader(header);
    for (const char* row_q : queries) {
      std::vector<std::string> row = {row_q};
      for (const char* col_q : queries) {
        row.push_back(std::string(row_q) == col_q
                          ? "-"
                          : FormatDouble(
                                engine.QueryScore(*graph.FindQuery(row_q),
                                                  *graph.FindQuery(col_q)),
                                3));
      }
      table.AddRow(row);
    }
    table.Print();
    std::printf("\n");
  }

  // 3. The Pearson baseline for comparison. On this unweighted graph it
  //    scores NOTHING: every edge weight is 1, so the centered weight
  //    vectors vanish and every correlation is undefined — one of the two
  //    degeneracies (with missing common ads) that cap its coverage in
  //    the paper's Figure 8.
  SimilarityMatrix pearson = ComputePearsonSimilarities(graph);
  std::printf("Pearson scores exist for %zu of 10 query pairs (uniform "
              "weights degenerate its correlations).\n\n",
              pearson.num_pairs());

  // 4. Rewrites for "camera" via the serving façade: the builder picks
  //    the engine from the registry by name, runs it, and produces an
  //    immutable RewriteService (no bid filter in this toy example).
  SimRankOptions options;
  options.variant = SimRankVariant::kWeighted;
  options.iterations = 25;
  options.prune_threshold = 0.0;
  options.max_partners_per_node = 0;
  RewritePipelineOptions pipeline;
  pipeline.apply_bid_filter = false;
  auto service = RewriteServiceBuilder()
                     .WithGraph(&graph)
                     .WithEngine("sparse", options)
                     .WithMinScore(1e-9)
                     .WithPipelineOptions(pipeline)
                     .Build();
  if (!service.ok()) {
    std::fprintf(stderr, "%s\n", service.status().ToString().c_str());
    return 1;
  }
  auto rewrites = (*service)->TopK("camera", 5);
  if (rewrites.ok()) {
    std::printf("Top rewrites for \"camera\" (%s):\n",
                (*service)->Stats().method_name.c_str());
    for (const RewriteCandidate& rewrite : *rewrites) {
      std::printf("  %-16s score %.3f\n", rewrite.text.c_str(),
                  rewrite.score);
    }
  }
  return 0;
}
