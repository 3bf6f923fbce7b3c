// The paper's appendix theorems as executable properties. Each theorem is
// checked both through the closed forms and through the sparse engine in
// exact mode (no pruning, no partner cap).
#include <gtest/gtest.h>

#include "core/closed_form.h"
#include "core/evidence.h"
#include "core/sample_graphs.h"
#include "core/sparse_engine.h"

namespace simrankpp {
namespace {

SimRankOptions ExactOptions() {
  SimRankOptions options;
  options.prune_threshold = 0.0;
  options.max_partners_per_node = 0;
  return options;
}

double EnginePairScore(const BipartiteGraph& graph, SimRankVariant variant,
                       size_t iterations, double c1 = 0.8, double c2 = 0.8) {
  SimRankOptions options = ExactOptions();
  options.variant = variant;
  options.iterations = iterations;
  options.c1 = c1;
  options.c2 = c2;
  SparseSimRankEngine engine(options);
  EXPECT_TRUE(engine.Run(graph).ok());
  return engine.QueryScore(0, 1);  // the two V1 ("query"-side) nodes
}

// --------------------------------------------------------- Theorem A.1

class TheoremA1Test : public ::testing::TestWithParam<size_t> {};

TEST_P(TheoremA1Test, SeriesRecurrenceAndEngineCoincide) {
  size_t k = GetParam();
  double series = TheoremA1Series(k, 0.8, 0.8);
  double recurrence = SimRankOnCompleteBipartite(2, 2, k, 0.8, 0.8).v1_pair;
  double engine = EnginePairScore(MakeCompleteBipartite(2, 2),
                                  SimRankVariant::kSimRank, k);
  EXPECT_NEAR(series, recurrence, 1e-13);
  EXPECT_NEAR(series, engine, 1e-13);
}

TEST_P(TheoremA1Test, LimitBoundedByC2) {
  // Theorem A.1(ii): lim sim(A,B) <= C2.
  EXPECT_LE(SimRankOnCompleteBipartite(2, 2, GetParam(), 0.8, 0.8).v2_pair,
            0.8 + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Iterations, TheoremA1Test,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 40, 80));

// ------------------------------------------------------- Theorem 6.1

TEST(Theorem61Test, K12PairAlwaysAtLeastK22Pair) {
  BipartiteGraph k12 = MakeFigure4K12();
  BipartiteGraph k22 = MakeFigure4K22();
  for (size_t k = 1; k <= 20; ++k) {
    double s12 = EnginePairScore(k12, SimRankVariant::kSimRank, k);
    double s22 = EnginePairScore(k22, SimRankVariant::kSimRank, k);
    EXPECT_GE(s12, s22) << "iteration " << k;
  }
}

TEST(Theorem61Test, EqualityOnlyInTheLimitWithCOne) {
  // With C1 = C2 = 1, the K2,2 pair converges to the K1,2 pair's constant
  // value 1.
  double k22_late = SimRankOnCompleteBipartite(2, 2, 2000, 1.0, 1.0).v1_pair;
  EXPECT_NEAR(k22_late, 1.0, 1e-3);
  // With C < 1 the gap persists (Corollary A.1).
  double k22_decayed = SimRankOnCompleteBipartite(2, 2, 2000, 0.8, 0.8).v1_pair;
  EXPECT_LT(k22_decayed, 0.8 - 0.05);
}

// ------------------------------------------------------- Theorem 6.2

class Theorem62Test
    : public ::testing::TestWithParam<std::pair<size_t, size_t>> {};

TEST_P(Theorem62Test, SmallerMScoresHigherEveryIteration) {
  auto [m, n] = GetParam();
  ASSERT_LT(m, n);
  for (size_t k = 1; k <= 15; ++k) {
    double sim_m = SimRankOnCompleteBipartite(m, 2, k, 0.8, 0.8).v2_pair;
    double sim_n = SimRankOnCompleteBipartite(n, 2, k, 0.8, 0.8).v2_pair;
    EXPECT_GT(sim_m, sim_n) << "K" << m << ",2 vs K" << n << ",2 at " << k;
  }
}

TEST_P(Theorem62Test, EngineAgreesWithRecurrence) {
  auto [m, n] = GetParam();
  for (size_t graph_m : {m, n}) {
    BipartiteGraph graph = MakeCompleteBipartite(graph_m, 2);
    SimRankOptions options = ExactOptions();
    options.iterations = 6;
    SparseSimRankEngine engine(options);
    ASSERT_TRUE(engine.Run(graph).ok());
    // The V2 pair here is the two ads.
    double expected =
        SimRankOnCompleteBipartite(graph_m, 2, 6, 0.8, 0.8).v2_pair;
    EXPECT_NEAR(engine.AdScore(0, 1), expected, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, Theorem62Test,
                         ::testing::Values(std::make_pair(1u, 2u),
                                           std::make_pair(2u, 3u),
                                           std::make_pair(2u, 5u),
                                           std::make_pair(3u, 8u),
                                           std::make_pair(5u, 9u)));

TEST(Theorem62Test2, LimitsConvergeIffCEqualsOne) {
  // (ii): equal limits iff C1 = C2 = 1.
  double lim_small = SimRankOnCompleteBipartite(2, 2, 5000, 1.0, 1.0).v2_pair;
  double lim_large = SimRankOnCompleteBipartite(7, 2, 5000, 1.0, 1.0).v2_pair;
  EXPECT_NEAR(lim_small, lim_large, 1e-3);

  double lim_small_d =
      SimRankOnCompleteBipartite(2, 2, 5000, 0.8, 0.8).v2_pair;
  double lim_large_d =
      SimRankOnCompleteBipartite(7, 2, 5000, 0.8, 0.8).v2_pair;
  EXPECT_GT(lim_small_d - lim_large_d, 0.01);
}

// ------------------------------------------------------- Theorem 7.1

class Theorem71Test : public ::testing::TestWithParam<size_t> {};

TEST_P(Theorem71Test, EvidenceInvertsK12VersusKn2Eventually) {
  // Theorem 7.1 / B.2-B.3 with m = 1: evidence-based SimRank eventually
  // ranks the K_{n,2} pair (n common neighbors) above the K_{1,2} pair
  // (one common neighbor), and the ordering persists in the limit —
  // fixing Section 6's anomaly. NOTE the paper claims the inversion for
  // every k > 1; that is only exact for small n (see the
  // DelayedInversion test below), so here we assert the (correct)
  // eventual + limit form.
  size_t n = GetParam();
  ASSERT_GT(n, 1u);
  double sim_1_limit = EvidenceBasedKm2Score(1, 3000, 0.8, 0.8);
  for (size_t k = 100; k <= 115; ++k) {
    EXPECT_LT(sim_1_limit, EvidenceBasedKm2Score(n, k, 0.8, 0.8))
        << "k=" << k;
  }
  EXPECT_LT(sim_1_limit, EvidenceBasedKm2Score(n, 3000, 0.8, 0.8));
}

TEST_P(Theorem71Test, EngineReproducesEvidenceOrdering) {
  size_t n = GetParam();
  BipartiteGraph small = MakeCompleteBipartite(1, 2);
  BipartiteGraph large = MakeCompleteBipartite(n, 2);
  SimRankOptions options = ExactOptions();
  options.variant = SimRankVariant::kEvidence;
  options.iterations = 40;
  SparseSimRankEngine small_engine(options);
  SparseSimRankEngine large_engine(options);
  ASSERT_TRUE(small_engine.Run(small).ok());
  ASSERT_TRUE(large_engine.Run(large).ok());
  EXPECT_LT(small_engine.AdScore(0, 1), large_engine.AdScore(0, 1));
}

INSTANTIATE_TEST_SUITE_P(Sizes, Theorem71Test,
                         ::testing::Values(2, 3, 6, 9, 20));

TEST(Theorem71FindingTest, ImmediateInversionHoldsOnlyForSmallN) {
  // The paper's "for all k > 1" phrasing: exact for the K2,2 case it
  // tabulates (Table 4 flips at iteration 2)...
  for (size_t k = 2; k <= 15; ++k) {
    EXPECT_LT(EvidenceBasedKm2Score(1, k, 0.8, 0.8),
              EvidenceBasedKm2Score(2, k, 0.8, 0.8));
    EXPECT_LT(EvidenceBasedKm2Score(1, k, 0.8, 0.8),
              EvidenceBasedKm2Score(3, k, 0.8, 0.8));
  }
  // ... but NOT in general: for larger n, plain SimRank's dilution
  // (1/n averaging) needs several iterations before the saturating
  // evidence boost overcomes it. Reproduction finding, see DESIGN.md.
  EXPECT_GT(EvidenceBasedKm2Score(1, 2, 0.8, 0.8),
            EvidenceBasedKm2Score(20, 2, 0.8, 0.8));
  EXPECT_GT(EvidenceBasedKm2Score(1, 3, 0.8, 0.8),
            EvidenceBasedKm2Score(20, 3, 0.8, 0.8));
  // The inversion does arrive (here within ~10 iterations) and persists.
  EXPECT_LT(EvidenceBasedKm2Score(1, 40, 0.8, 0.8),
            EvidenceBasedKm2Score(20, 40, 0.8, 0.8));
}

// ----------------------------------------------------- Theorem B.1(ii)

TEST(TheoremB1Test, EvidenceK22LimitAboveHalfC2) {
  // With C1, C2 > 1/2 the evidence-based K2,2 pair limit exceeds C2/2
  // (which is the K1,2 pair's constant evidence-based score).
  for (double c : {0.6, 0.7, 0.8, 0.9, 0.99}) {
    double limit = EvidenceBasedKm2Score(2, 3000, c, c);
    EXPECT_GT(limit, c / 2.0) << "C=" << c;
  }
}

TEST(TheoremB1Test, SmallDecayBreaksThePremise) {
  // The theorem requires C > 1/2; with C well below, the inversion can
  // fail (the evidence boost cannot compensate the slow accumulation).
  double k12 = EvidenceBasedKm2Score(1, 3000, 0.2, 0.2);
  double k22 = EvidenceBasedKm2Score(2, 3000, 0.2, 0.2);
  // At C = 0.2: K1,2 pair = 0.5 * 0.2 = 0.1; K2,2 limit stays below.
  EXPECT_GT(k12, k22);
}

}  // namespace
}  // namespace simrankpp
