// Determinism of the parallel iteration paths: both engines must
// produce bit-identical exported scores for every num_threads setting,
// because work is sharded by a partition that never depends on the thread count
// and per-shard results merge in a fixed order (no atomics on scores).
// The sparse engine's flat structures (two-hop candidate index, shard-
// concatenated PairStore, delta-driven rescoring state) are all covered
// by the same invariant: none of them may depend on the thread count, and
// the incremental toggle must not change results when convergence_epsilon
// is 0.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/linearized_engine.h"
#include "core/sparse_engine.h"
#include "synth/click_graph_generator.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace simrankpp {
namespace {

// Seeded stand-in for the experiment click graph, scaled down so every
// engine run stays fast.
BipartiteGraph SeededGraph() {
  GeneratorOptions options;
  options.num_queries = 400;
  options.num_ads = 130;
  options.taxonomy.num_categories = 8;
  options.taxonomy.subtopics_per_category = 6;
  options.mean_impressions_per_query = 25.0;
  options.seed = 2024;
  auto world = GenerateClickGraph(options);
  SRPP_CHECK(world.ok());
  return std::move(world)->graph;
}

// `exact_mode` turns pruning and the partner cap off: the exact
// fixed-point iteration the paper tables run on.
SimRankOptions ThreadedOptions(SimRankVariant variant, size_t num_threads,
                               bool exact_mode = false) {
  SimRankOptions options;
  options.variant = variant;
  options.iterations = 5;
  options.prune_threshold = exact_mode ? 0.0 : 1e-5;
  options.max_partners_per_node = exact_mode ? 0 : 50;
  options.num_threads = num_threads;
  return options;
}

// Exact equality: same stored pairs, each score bit-identical.
void ExpectIdentical(const SimilarityMatrix& a, const SimilarityMatrix& b) {
  EXPECT_EQ(a.num_pairs(), b.num_pairs());
  EXPECT_EQ(a.MaxAbsDifference(b), 0.0);
}

// What stats().threads_used must report: the resolved request, clamped to
// what the shared pool can actually supply (its workers + the caller).
size_t ExpectedThreadsUsed(size_t requested) {
  size_t resolved = ResolveThreadCount(requested);
  if (resolved <= 1) return resolved;
  return std::min(resolved, SharedThreadPool().num_threads() + 1);
}

template <typename Engine>
void CheckThreadCountInvariance(SimRankVariant variant,
                                bool exact_mode = false) {
  BipartiteGraph graph = SeededGraph();
  Engine reference(ThreadedOptions(variant, 1, exact_mode));
  ASSERT_TRUE(reference.Run(graph).ok());
  EXPECT_EQ(reference.stats().threads_used, 1u);
  SimilarityMatrix reference_queries = reference.ExportQueryScores(0.0);
  SimilarityMatrix reference_ads = reference.ExportAdScores(0.0);
  EXPECT_GT(reference_queries.num_pairs(), 0u);
  EXPECT_GT(reference_ads.num_pairs(), 0u);

  for (size_t num_threads : {size_t{4}, size_t{0}}) {
    Engine engine(ThreadedOptions(variant, num_threads, exact_mode));
    ASSERT_TRUE(engine.Run(graph).ok());
    EXPECT_EQ(engine.stats().threads_used, ExpectedThreadsUsed(num_threads));
    ExpectIdentical(engine.ExportQueryScores(0.0), reference_queries);
    ExpectIdentical(engine.ExportAdScores(0.0), reference_ads);
  }
}

TEST(ThreadingTest, SparseSimRankBitIdenticalAcrossThreadCounts) {
  CheckThreadCountInvariance<SparseSimRankEngine>(SimRankVariant::kSimRank);
}

TEST(ThreadingTest, SparseEvidenceBitIdenticalAcrossThreadCounts) {
  CheckThreadCountInvariance<SparseSimRankEngine>(SimRankVariant::kEvidence);
}

TEST(ThreadingTest, SparseWeightedBitIdenticalAcrossThreadCounts) {
  CheckThreadCountInvariance<SparseSimRankEngine>(SimRankVariant::kWeighted);
}

TEST(ThreadingTest, SparseExactSimRankBitIdenticalAcrossThreadCounts) {
  CheckThreadCountInvariance<SparseSimRankEngine>(SimRankVariant::kSimRank,
                                                  /*exact_mode=*/true);
}

TEST(ThreadingTest, SparseExactEvidenceBitIdenticalAcrossThreadCounts) {
  CheckThreadCountInvariance<SparseSimRankEngine>(SimRankVariant::kEvidence,
                                                  /*exact_mode=*/true);
}

TEST(ThreadingTest, SparseExactWeightedBitIdenticalAcrossThreadCounts) {
  CheckThreadCountInvariance<SparseSimRankEngine>(SimRankVariant::kWeighted,
                                                  /*exact_mode=*/true);
}

TEST(ThreadingTest, LinearizedSimRankBitIdenticalAcrossThreadCounts) {
  CheckThreadCountInvariance<LinearizedSimRankEngine>(
      SimRankVariant::kSimRank);
}

TEST(ThreadingTest, LinearizedEvidenceBitIdenticalAcrossThreadCounts) {
  CheckThreadCountInvariance<LinearizedSimRankEngine>(
      SimRankVariant::kEvidence);
}

// The delta-driven skip path shards exactly like the full rescore: with
// or without it, for any thread count, the exported stores are the same
// bits (epsilon = 0 makes the skip tolerance exact).
TEST(ThreadingTest, SparseIncrementalToggleBitIdenticalAcrossThreadCounts) {
  BipartiteGraph graph = SeededGraph();
  SimRankOptions reference_options =
      ThreadedOptions(SimRankVariant::kSimRank, 1);
  reference_options.incremental = false;
  SparseSimRankEngine reference(reference_options);
  ASSERT_TRUE(reference.Run(graph).ok());
  EXPECT_EQ(reference.stats().reused_pairs, 0u);
  SimilarityMatrix reference_queries = reference.ExportQueryScores(0.0);
  SimilarityMatrix reference_ads = reference.ExportAdScores(0.0);

  for (bool incremental : {true, false}) {
    for (size_t num_threads : {size_t{1}, size_t{4}, size_t{0}}) {
      SimRankOptions options =
          ThreadedOptions(SimRankVariant::kSimRank, num_threads);
      options.incremental = incremental;
      SparseSimRankEngine engine(options);
      ASSERT_TRUE(engine.Run(graph).ok());
      ExpectIdentical(engine.ExportQueryScores(0.0), reference_queries);
      ExpectIdentical(engine.ExportAdScores(0.0), reference_ads);
    }
  }
}

TEST(ThreadingTest, StatsReportThreadsUsed) {
  BipartiteGraph graph = SeededGraph();
  SparseSimRankEngine engine(ThreadedOptions(SimRankVariant::kSimRank, 3));
  ASSERT_TRUE(engine.Run(graph).ok());
  size_t expected = ExpectedThreadsUsed(3);
  EXPECT_EQ(engine.stats().threads_used, expected);
  EXPECT_NE(engine.stats().ToString().find(
                "threads=" + std::to_string(expected)),
            std::string::npos);
}

}  // namespace
}  // namespace simrankpp
