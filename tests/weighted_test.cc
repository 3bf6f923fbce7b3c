// Weighted SimRank tests (Section 8): the transition model (variance,
// spread, normalized weights, self-transitions), the consistency rules of
// Definition 8.1 on the paper's Figure 5/6 examples and on randomized
// graphs (Theorem 8.1 as a property test).
#include <gtest/gtest.h>

#include <cmath>

#include "core/sample_graphs.h"
#include "core/sparse_engine.h"
#include "core/weighted_transitions.h"
#include "graph/graph_builder.h"
#include "util/random.h"

namespace simrankpp {
namespace {

TEST(TransitionModelTest, VarianceAndSpread) {
  GraphBuilder builder;
  ASSERT_TRUE(builder.AddWeightedClick("q1", "ad", 0.2).ok());
  ASSERT_TRUE(builder.AddWeightedClick("q2", "ad", 0.6).ok());
  BipartiteGraph graph = std::move(builder.Build()).value();
  WeightedTransitionModel model(graph);

  AdId ad = *graph.FindAd("ad");
  // Population variance of {0.2, 0.6} = 0.04.
  EXPECT_NEAR(model.AdVariance(ad), 0.04, 1e-12);
  EXPECT_NEAR(model.AdSpread(ad), std::exp(-0.04), 1e-12);
  // Each query has a single edge: variance 0, spread 1.
  EXPECT_DOUBLE_EQ(model.QueryVariance(*graph.FindQuery("q1")), 0.0);
  EXPECT_DOUBLE_EQ(model.QuerySpread(*graph.FindQuery("q1")), 1.0);
}

TEST(TransitionModelTest, NormalizedWeightsSumToOnePerNode) {
  GraphBuilder builder;
  ASSERT_TRUE(builder.AddWeightedClick("q", "a1", 0.1).ok());
  ASSERT_TRUE(builder.AddWeightedClick("q", "a2", 0.3).ok());
  ASSERT_TRUE(builder.AddWeightedClick("q", "a3", 0.6).ok());
  BipartiteGraph graph = std::move(builder.Build()).value();
  WeightedTransitionModel model(graph);
  QueryId q = *graph.FindQuery("q");
  // Each destination ad has one edge -> spread 1, so the factors are the
  // plain normalized weights and must sum to 1.
  double sum = 0.0;
  for (EdgeId e : graph.QueryEdges(q)) sum += model.QueryToAdFactor(e);
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_NEAR(model.QuerySelfTransition(q), 0.0, 1e-12);
}

TEST(TransitionModelTest, SpreadShrinksTransitionsAndFeedsSelfLoop) {
  GraphBuilder builder;
  ASSERT_TRUE(builder.AddWeightedClick("q1", "ad", 0.1).ok());
  ASSERT_TRUE(builder.AddWeightedClick("q2", "ad", 0.9).ok());
  BipartiteGraph graph = std::move(builder.Build()).value();
  WeightedTransitionModel model(graph);
  QueryId q1 = *graph.FindQuery("q1");
  // q1's only transition is damped by the ad's spread, the rest of the
  // probability stays on q1.
  AdId ad = *graph.FindAd("ad");
  double spread = model.AdSpread(ad);
  EXPECT_LT(spread, 1.0);
  EXPECT_NEAR(model.QuerySelfTransition(q1), 1.0 - spread, 1e-12);
}

TEST(TransitionModelTest, ZeroWeightNodeKeepsAllMass) {
  GraphBuilder builder;
  ASSERT_TRUE(builder.AddObservation("q", "a", {5, 1, 0.0}).ok());
  BipartiteGraph graph = std::move(builder.Build()).value();
  WeightedTransitionModel model(graph);
  EXPECT_DOUBLE_EQ(model.QueryToAdFactor(0), 0.0);
  EXPECT_DOUBLE_EQ(model.QuerySelfTransition(0), 1.0);
}

// ------------------------------------------------ Figure 5/6 consistency

// The engine runs below use the sparse engine in exact mode: nothing
// pruned, no partner cap.
SimRankOptions ExactOptions() {
  SimRankOptions options;
  options.prune_threshold = 0.0;
  options.max_partners_per_node = 0;
  return options;
}

double WeightedPairScore(const BipartiteGraph& graph, const char* q1,
                         const char* q2, size_t iterations = 10) {
  SimRankOptions options = ExactOptions();
  options.variant = SimRankVariant::kWeighted;
  options.iterations = iterations;
  SparseSimRankEngine engine(options);
  EXPECT_TRUE(engine.Run(graph).ok());
  return engine.QueryScore(*graph.FindQuery(q1), *graph.FindQuery(q2));
}

TEST(ConsistencyTest, Figure5BalancedPairMoreSimilar) {
  // Equal click contributions (100/100) must outscore skewed ones
  // (150/50): Definition 8.1 rule (ii), realized through spread().
  double balanced =
      WeightedPairScore(MakeFigure5Graph(true), "flower", "orchids");
  double skewed =
      WeightedPairScore(MakeFigure5Graph(false), "flower", "teleflora");
  EXPECT_GT(balanced, skewed);
}

TEST(ConsistencyTest, PlainSimRankCannotSeeFigure5Difference) {
  SimRankOptions options = ExactOptions();
  options.iterations = 10;
  SparseSimRankEngine balanced_engine(options);
  SparseSimRankEngine skewed_engine(options);
  BipartiteGraph balanced = MakeFigure5Graph(true);
  BipartiteGraph skewed = MakeFigure5Graph(false);
  ASSERT_TRUE(balanced_engine.Run(balanced).ok());
  ASSERT_TRUE(skewed_engine.Run(skewed).ok());
  EXPECT_DOUBLE_EQ(
      balanced_engine.QueryScore(*balanced.FindQuery("flower"),
                                 *balanced.FindQuery("orchids")),
      skewed_engine.QueryScore(*skewed.FindQuery("flower"),
                               *skewed.FindQuery("teleflora")));
}

// -------------------------------------- randomized consistency (Thm 8.1)

// Definition 8.1 on single-ad two-query graphs: build graphs
// q_i -- v -- q_j with weights (w1, w2); scores must order by rule (i)
// (same variance, larger weight wins) and rule (ii) (smaller variance and
// larger weight wins).
double PairScoreForWeights(double w1, double w2) {
  GraphBuilder builder;
  EXPECT_TRUE(builder.AddWeightedClick("i", "v", w1).ok());
  EXPECT_TRUE(builder.AddWeightedClick("j", "v", w2).ok());
  BipartiteGraph graph = std::move(builder.Build()).value();
  return WeightedPairScore(graph, "i", "j");
}

TEST(ConsistencyTest, RuleTwoRandomized) {
  // Rule (ii): variance(v1) < variance(v2) and w(i1,v1) > w(i2,v2)
  // => sim(i1,j1) > sim(i2,j2).
  Rng rng(404);
  int checked = 0;
  for (int trial = 0; trial < 200; ++trial) {
    double mean1 = 7.0 + 4.0 * rng.NextDouble();   // heavier pair
    double mean2 = 3.0 + 3.0 * rng.NextDouble();
    double delta1 = rng.NextDouble();               // small spread
    double delta2 = 1.5 + rng.NextDouble();         // large spread
    double w_i1 = mean1 + delta1, w_j1 = mean1 - delta1;
    double w_i2 = mean2 + delta2, w_j2 = mean2 - delta2;
    if (w_j2 <= 0.0) continue;
    if (w_i1 <= w_i2) continue;  // premise of rule (ii)
    ++checked;
    EXPECT_GT(PairScoreForWeights(w_i1, w_j1),
              PairScoreForWeights(w_i2, w_j2))
        << "weights (" << w_i1 << "," << w_j1 << ") vs (" << w_i2 << ","
        << w_j2 << ")";
  }
  EXPECT_GT(checked, 20);
}

TEST(ConsistencyTest, EqualVarianceTiesBrokenTowardLowerSpreadPenalty) {
  // With equal variance the spreads cancel; scores coincide under the
  // normalized-weight model (each query has one edge). This documents the
  // scale-invariance of normalized weights on degree-1 nodes.
  EXPECT_DOUBLE_EQ(PairScoreForWeights(10.0, 10.0),
                   PairScoreForWeights(100.0, 100.0));
}

// --------------------------------------------------------- weighted runs

TEST(WeightedEngineTest, WeightedScoresRespectEdgeStrengthOnFigure3) {
  // Reweight Figure 3 so camera/digital camera send strong clicks to
  // their shared ads while pc's link to hp is feeble; the weighted score
  // of (camera, digital camera) must then exceed (pc, camera) — plain
  // SimRank ties them near-equal (Table 2: both 0.619).
  GraphBuilder builder;
  ASSERT_TRUE(builder.AddWeightedClick("pc", "hp.com", 0.05).ok());
  ASSERT_TRUE(builder.AddWeightedClick("camera", "hp.com", 0.9).ok());
  ASSERT_TRUE(builder.AddWeightedClick("camera", "bestbuy.com", 0.9).ok());
  ASSERT_TRUE(builder.AddWeightedClick("digital camera", "hp.com", 0.9).ok());
  ASSERT_TRUE(
      builder.AddWeightedClick("digital camera", "bestbuy.com", 0.9).ok());
  ASSERT_TRUE(builder.AddWeightedClick("tv", "bestbuy.com", 0.05).ok());
  BipartiteGraph graph = std::move(builder.Build()).value();
  double strong = WeightedPairScore(graph, "camera", "digital camera");
  double weak = WeightedPairScore(graph, "pc", "camera");
  EXPECT_GT(strong, weak);
}

TEST(WeightedEngineTest, UniformWeightsStayBounded) {
  BipartiteGraph graph = MakeCompleteBipartite(4, 4);
  SimRankOptions options = ExactOptions();
  options.variant = SimRankVariant::kWeighted;
  options.iterations = 30;
  SparseSimRankEngine engine(options);
  ASSERT_TRUE(engine.Run(graph).ok());
  for (QueryId a = 0; a < 4; ++a) {
    for (QueryId b = 0; b < 4; ++b) {
      EXPECT_LE(engine.QueryScore(a, b), 1.0 + 1e-12);
      EXPECT_GE(engine.QueryScore(a, b), 0.0);
    }
  }
}

}  // namespace
}  // namespace simrankpp
