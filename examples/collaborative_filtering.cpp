// Collaborative filtering with Simrank++ — the "other domains that
// exploit bipartite graphs" the paper's conclusion proposes. Users on one
// side, movies on the other, star ratings as edge weights: weighted
// SimRank finds taste-alike users and similar movies, and a tiny
// recommender suggests unseen movies through similar users.
//
//   ./build/examples/example_collaborative_filtering
//   (configure with -DSIMRANKPP_BUILD_EXAMPLES=ON)
#include <algorithm>
#include <cstdio>

#include "core/sparse_engine.h"
#include "graph/graph_builder.h"
#include "util/string_util.h"

using namespace simrankpp;

int main() {
  // A small user x movie rating matrix (ratings 1-5 mapped to [0,1]).
  struct Rating {
    const char* user;
    const char* movie;
    double stars;
  };
  const Rating ratings[] = {
      {"alice", "alien", 5},         {"alice", "blade runner", 5},
      {"alice", "the matrix", 4},    {"bob", "alien", 4},
      {"bob", "blade runner", 5},    {"bob", "terminator", 4},
      {"carol", "notting hill", 5},  {"carol", "love actually", 4},
      {"carol", "amelie", 5},        {"dave", "notting hill", 4},
      {"dave", "amelie", 4},         {"dave", "the matrix", 2},
      {"erin", "terminator", 5},     {"erin", "the matrix", 5},
      {"erin", "alien", 3},          {"frank", "love actually", 3},
      {"frank", "amelie", 4},        {"frank", "blade runner", 1},
  };

  GraphBuilder builder;
  for (const Rating& rating : ratings) {
    Status status = builder.AddObservation(
        rating.user, rating.movie,
        EdgeWeights{/*impressions=*/5,
                    /*clicks=*/static_cast<uint32_t>(rating.stars),
                    /*expected_click_rate=*/rating.stars / 5.0});
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
  }
  BipartiteGraph graph = std::move(builder.Build()).value();

  SimRankOptions options;
  options.variant = SimRankVariant::kWeighted;
  options.iterations = 15;
  options.prune_threshold = 0.0;  // exact mode: nothing pruned, no cap
  options.max_partners_per_node = 0;
  SparseSimRankEngine engine(options);
  if (Status status = engine.Run(graph); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }

  // Taste-alike users ("queries" side).
  std::printf("user-user similarity (weighted Simrank):\n");
  SimilarityMatrix users = engine.ExportQueryScores(1e-6);
  for (QueryId u = 0; u < graph.num_queries(); ++u) {
    std::vector<ScoredNode> top = users.TopK(u, 2);
    std::printf("  %-6s:", graph.query_label(u).c_str());
    for (const ScoredNode& other : top) {
      std::printf(" %s (%.3f)", graph.query_label(other.node).c_str(),
                  other.score);
    }
    std::printf("\n");
  }

  // Similar movies ("ads" side).
  std::printf("\nmovie-movie similarity:\n");
  SimilarityMatrix movies = engine.ExportAdScores(1e-6);
  for (AdId m = 0; m < graph.num_ads(); ++m) {
    std::vector<ScoredNode> top = movies.TopK(m, 2);
    std::printf("  %-14s:", graph.ad_label(m).c_str());
    for (const ScoredNode& other : top) {
      std::printf(" %s (%.3f)", graph.ad_label(other.node).c_str(),
                  other.score);
    }
    std::printf("\n");
  }

  // Recommend: for each user, movies rated >= 4 stars by the most similar
  // user and unseen by this one.
  std::printf("\nrecommendations (via most similar user):\n");
  for (QueryId u = 0; u < graph.num_queries(); ++u) {
    std::vector<ScoredNode> top = users.TopK(u, 1);
    if (top.empty()) continue;
    QueryId peer = top[0].node;
    std::printf("  for %-6s (taste-alike: %s):", graph.query_label(u).c_str(),
                graph.query_label(peer).c_str());
    bool any = false;
    for (EdgeId e : graph.QueryEdges(peer)) {
      AdId movie = graph.edge_ad(e);
      if (graph.edge_weights(e).expected_click_rate < 0.8) continue;
      if (graph.FindEdge(u, movie).has_value()) continue;  // already seen
      std::printf(" %s", graph.ad_label(movie).c_str());
      any = true;
    }
    std::printf(any ? "\n" : " (nothing new)\n");
  }
  return 0;
}
