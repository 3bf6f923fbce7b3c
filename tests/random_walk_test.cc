// Monte-Carlo random-surfer tests (Section 5): the simulated meeting
// estimator must converge to the fixed-point SimRank scores, giving an
// independent check of the engines' semantics.
#include <gtest/gtest.h>

#include "core/closed_form.h"
#include "core/random_walk.h"
#include "core/sample_graphs.h"
#include "core/sparse_engine.h"

namespace simrankpp {
namespace {

TEST(RandomWalkTest, SamePairIsOne) {
  BipartiteGraph graph = MakeFigure4K22();
  RandomWalkOptions options;
  EXPECT_DOUBLE_EQ(EstimateQuerySimRank(graph, 0, 0, options), 1.0);
  EXPECT_DOUBLE_EQ(EstimateAdSimRank(graph, 1, 1, options), 1.0);
}

TEST(RandomWalkTest, DeterministicForSeed) {
  BipartiteGraph graph = MakeFigure3Graph();
  RandomWalkOptions options;
  options.trials = 5000;
  double a = EstimateQuerySimRank(graph, 0, 1, options);
  double b = EstimateQuerySimRank(graph, 0, 1, options);
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(RandomWalkTest, MatchesClosedFormOnK22) {
  BipartiteGraph graph = MakeFigure4K22();
  RandomWalkOptions options;
  options.trials = 300000;
  double estimate = EstimateQuerySimRank(
      graph, *graph.FindQuery("camera"), *graph.FindQuery("digital camera"),
      options);
  double exact = SimRankOnCompleteBipartite(2, 2, 200, 0.8, 0.8).v1_pair;
  EXPECT_NEAR(estimate, exact, 0.01);
}

TEST(RandomWalkTest, MatchesConstantOnK12) {
  BipartiteGraph graph = MakeFigure4K12();
  RandomWalkOptions options;
  options.trials = 100000;
  // Both queries hop to the single shared ad at step 1, paying C1.
  double estimate = EstimateQuerySimRank(
      graph, *graph.FindQuery("pc"), *graph.FindQuery("camera"), options);
  EXPECT_NEAR(estimate, 0.8, 1e-9);  // FP summation slack only
}

TEST(RandomWalkTest, MatchesExactEngineOnFigure3) {
  BipartiteGraph graph = MakeFigure3Graph();
  SimRankOptions engine_options;
  engine_options.iterations = 60;
  engine_options.prune_threshold = 0.0;
  engine_options.max_partners_per_node = 0;
  SparseSimRankEngine engine(engine_options);
  ASSERT_TRUE(engine.Run(graph).ok());

  RandomWalkOptions walk_options;
  walk_options.trials = 300000;
  walk_options.max_steps = 120;

  const std::pair<const char*, const char*> pairs[] = {
      {"pc", "camera"}, {"pc", "tv"}, {"camera", "digital camera"},
      {"camera", "tv"}};
  for (auto [a, b] : pairs) {
    QueryId qa = *graph.FindQuery(a);
    QueryId qb = *graph.FindQuery(b);
    EXPECT_NEAR(EstimateQuerySimRank(graph, qa, qb, walk_options),
                engine.QueryScore(qa, qb), 0.01)
        << a << " vs " << b;
  }
}

TEST(RandomWalkTest, DisconnectedPairsNeverMeet) {
  BipartiteGraph graph = MakeFigure3Graph();
  RandomWalkOptions options;
  options.trials = 20000;
  double estimate = EstimateQuerySimRank(
      graph, *graph.FindQuery("flower"), *graph.FindQuery("pc"), options);
  EXPECT_DOUBLE_EQ(estimate, 0.0);
}

TEST(RandomWalkTest, AdSideEstimatesWork) {
  BipartiteGraph graph = MakeFigure4K22();
  RandomWalkOptions options;
  options.trials = 300000;
  double estimate = EstimateAdSimRank(graph, *graph.FindAd("hp.com"),
                                      *graph.FindAd("bestbuy.com"), options);
  double exact = SimRankOnCompleteBipartite(2, 2, 200, 0.8, 0.8).v2_pair;
  EXPECT_NEAR(estimate, exact, 0.01);
}

TEST(RandomWalkTest, AsymmetricDecaysRespectSides) {
  // With C1 != C2, the first hop of an ad-side pair pays C2.
  BipartiteGraph graph = MakeFigure4K12();
  RandomWalkOptions options;
  options.c1 = 0.9;
  options.c2 = 0.3;
  options.trials = 50000;
  // Query pair of K1,2 meets at step 1 through the single ad: factor C1.
  double query_side = EstimateQuerySimRank(
      graph, *graph.FindQuery("pc"), *graph.FindQuery("camera"), options);
  EXPECT_NEAR(query_side, 0.9, 1e-12);
}

TEST(RandomWalkTest, ShortMaxStepsLowerTheEstimate) {
  BipartiteGraph graph = MakeFigure4K22();
  RandomWalkOptions shallow;
  shallow.trials = 100000;
  shallow.max_steps = 1;
  RandomWalkOptions deep = shallow;
  deep.max_steps = 64;
  double s = EstimateQuerySimRank(graph, 0, 1, shallow);
  double d = EstimateQuerySimRank(graph, 0, 1, deep);
  EXPECT_LT(s, d);
  // One step on K2,2: meet with probability 1/2, factor C1.
  EXPECT_NEAR(s, 0.4, 0.01);
}

}  // namespace
}  // namespace simrankpp
