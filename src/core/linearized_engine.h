/// @file linearized_engine.h
/// @brief Linearized SimRank: single-source scoring without materializing
/// all pairs ("Efficient SimRank Computation via Linearization", Maehara
/// et al., adapted to the bipartite click graph — docs/LINEARIZED_ENGINE.md).
///
/// The bipartite SimRank fixed point
///   S_q = C1 * Q S_a Q^T   (off-diagonal),   diag(S_q) = I,
///   S_a = C2 * R S_q R^T   (off-diagonal),   diag(S_a) = I
/// (Q / R the row-normalized query->ad / ad->query adjacency) is rewritten
/// as the linear system S_q = C1 C2 * M S_q M^T + C with M = Q R and a
/// correction matrix C = D_q + C1 * Q D_a Q^T built from two DIAGONAL
/// vectors D_q, D_a — the only unknowns that must be solved for globally.
/// Prepare() estimates them once with a Jacobi iteration over walk-based
/// linear forms (parallelized per node on the shared pool); after that a
/// single node's full score row is a truncated power-series evaluation
/// costing O(T) sparse matrix-vector products over the node's
/// neighborhood — no n^2 state anywhere. That is the step past the
/// all-pairs precompute ceiling: rows become answerable at serve time
/// (see OnDemandScorer and the RewriteService on-demand mode).
///
/// Run() keeps the engine a drop-in registry citizen ("linearized"): it
/// loops the single-source evaluation over every node, materializing the
/// same exportable score sets as the sparse engine for small
/// graphs and snapshot round-trips.
#ifndef SIMRANKPP_CORE_LINEARIZED_ENGINE_H_
#define SIMRANKPP_CORE_LINEARIZED_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/simrank_engine.h"

namespace simrankpp {

/// \brief Linearized SimRank engine (plain and evidence-based variants;
/// weighted SimRank's in-recursion evidence does not linearize and is
/// rejected by Prepare/Run).
class LinearizedSimRankEngine : public SimRankEngine, public OnDemandScorer {
 public:
  explicit LinearizedSimRankEngine(SimRankOptions options);

  // SimRankEngine --------------------------------------------------------
  Status Run(const BipartiteGraph& graph) override;
  double QueryScore(QueryId q1, QueryId q2) const override;
  double AdScore(AdId a1, AdId a2) const override;
  SimilarityMatrix ExportQueryScores(double min_score) const override;
  SimilarityMatrix ExportAdScores(double min_score) const override;
  const SimRankStats& stats() const override { return stats_; }
  const SimRankOptions& options() const override { return options_; }

  // OnDemandScorer -------------------------------------------------------
  /// \brief Estimates the diagonal correction vectors (the offline part);
  /// after it returns, ScoredRow is safe from any number of threads.
  Status Prepare(const BipartiteGraph& graph) override;
  Result<std::vector<ScoredNode>> ScoredRow(
      bool ad_side, uint32_t node, double min_score,
      size_t max_partners) const override;

  /// \brief The paper-facing single-source operation: every query scored
  /// against query `node`, descending. Shorthand for
  /// ScoredRow(/*ad_side=*/false, node, 0.0, /*max_partners=*/0).
  Result<std::vector<ScoredNode>> ScoresFor(uint32_t node) const {
    return ScoredRow(/*ad_side=*/false, node, 0.0, 0);
  }

  /// \brief The estimated diagonal corrections (exposed for tests and the
  /// perf bench; sized num_queries / num_ads after Prepare).
  std::span<const double> diag_query() const { return diag_query_; }
  std::span<const double> diag_ad() const { return diag_ad_; }

 private:
  /// Flattened one-directional adjacency (opposite-node ids per node),
  /// plus 1/degree — the walk hot loops never touch edge ids.
  struct SideAdjacency {
    std::vector<size_t> offsets;      // n + 1
    std::vector<uint32_t> neighbors;  // ascending per node
    std::vector<double> inv_degree;   // n; 0 for isolated nodes

    std::span<const uint32_t> Neighbors(uint32_t u) const {
      return {neighbors.data() + offsets[u], offsets[u + 1] - offsets[u]};
    }
  };

  /// One compacted walk iterate w_k: sorted (node, value) pairs.
  using SparseRow = std::vector<ScoredNode>;

  /// Dense-value/touched-list sparse vector: O(support) iteration and
  /// clearing over a reusable O(n) buffer. Touched indices are sorted
  /// before every read pass so per-node accumulation order — and with it
  /// the floating-point result — never depends on scheduling.
  struct WorkVec {
    std::vector<double> value;
    std::vector<uint8_t> marked;
    std::vector<uint32_t> touched;

    void Resize(size_t n) {
      value.assign(n, 0.0);
      marked.assign(n, 0);
      touched.clear();
    }
    void Add(uint32_t i, double v) {
      if (!marked[i]) {
        marked[i] = 1;
        touched.push_back(i);
      }
      value[i] += v;
    }
    void Clear() {
      for (uint32_t i : touched) {
        value[i] = 0.0;
        marked[i] = 0;
      }
      touched.clear();
    }
    void SortTouched() { std::sort(touched.begin(), touched.end()); }

    /// Appends the nonzero entries in ascending node order; the vector
    /// itself is left intact (Clear separately).
    void CompactInto(SparseRow* out) {
      SortTouched();
      for (uint32_t i : touched) {
        if (value[i] != 0.0) out->push_back({i, value[i]});
      }
    }

    /// Structure-of-arrays twin of CompactInto: parallel node / value
    /// vectors, the layout the SIMD gather kernels consume directly.
    void CompactInto(std::vector<uint32_t>* nodes,
                     std::vector<double>* values) {
      SortTouched();
      for (uint32_t i : touched) {
        if (value[i] != 0.0) {
          nodes->push_back(i);
          values->push_back(value[i]);
        }
      }
    }
  };

  /// Per-thread scratch for walk propagation. Both-side sized: a query
  /// row needs query-space iterates and ad-space intermediates (and vice
  /// versa), so every vector is sized by the side it lives on.
  struct Scratch {
    WorkVec own;       // own-side workspace (next walk iterate)
    WorkVec opposite;  // opposite-side intermediate projection
    WorkVec result;    // own-side accumulator (backward pass / own coeffs)
    WorkVec cross;     // opposite-side accumulator (cross diag coeffs)

    void Resize(size_t num_own, size_t num_opposite) {
      own.Resize(num_own);
      opposite.Resize(num_opposite);
      result.Resize(num_own);
      cross.Resize(num_opposite);
    }
  };

  /// The diagonal conditions are LINEAR in (D_q, D_a): the walk iterates
  /// w_k never depend on the diagonals, so one pass precomputes, per node
  /// u, the coefficients of
  ///   F_u(D) = sum_v own[v] * D_own[v] + sum_b cross[b] * D_opp[b]
  /// and the Jacobi sweeps reduce to sparse dot products. alpha (the
  /// self-coefficient own[u]) is >= 1 from the k = 0 term, which keeps
  /// the per-node update d[u] += (1 - F_u) / alpha_u well defined.
  /// Stored structure-of-arrays (parallel node / coefficient vectors,
  /// ascending by node) so each Jacobi sweep's dot products run through
  /// the SIMD dense-gather kernel.
  struct DiagForm {
    std::vector<uint32_t> own_nodes;   // this side's diagonal indices
    std::vector<double> own_coeffs;    // parallel coefficients
    std::vector<uint32_t> cross_nodes;  // opposite side's diagonal indices
    std::vector<double> cross_coeffs;   // parallel coefficients
    double alpha = 1.0;
  };

  /// Rejects unsupported configurations (weighted variant, C1*C2 >= 1)
  /// and builds the flattened adjacency.
  Status BindGraph(const BipartiteGraph& graph);

  /// One forward walk step w_{k+1} = (M^T) w_k = opp_adj^T (own_adj^T w_k)
  /// with row-normalized (source-degree) factors. Leaves the intermediate
  /// opposite-side projection own_adj^T w_k in `opp_out` — the diagonal
  /// estimation reads it for the cross coefficients. The adjacency roles
  /// are side-relative: for a query walk own=query_adj_ / opp=ad_adj_, for
  /// an ad walk the reverse. Both outputs are cleared, filled, and
  /// touched-sorted.
  static void WalkStep(const SideAdjacency& own_adj,
                       const SideAdjacency& opp_adj, const SparseRow& from,
                       WorkVec* opp_out, WorkVec* own_out);

  /// Walk-based linear form of one node's diagonal condition.
  DiagForm BuildDiagForm(bool ad_side, uint32_t node,
                         Scratch* scratch) const;

  /// Jacobi estimation of diag_query_ / diag_ad_ from the precomputed
  /// linear forms. Returns the final residual max |1 - F_u| and counts
  /// sweeps into stats_.iterations_run.
  double EstimateDiagonals(const std::vector<DiagForm>& forms_q,
                           const std::vector<DiagForm>& forms_a);

  /// Raw (pre-evidence) truncated-series row of `node`, entries > 0 in
  /// ascending node order (self excluded).
  SparseRow RawRow(bool ad_side, uint32_t node, Scratch* scratch) const;

  /// Variant read semantics (evidence post-multiply where configured).
  double VariantFactor(bool ad_side, uint32_t u, uint32_t v) const;

  SimilarityMatrix ExportSide(bool ad_side, double min_score) const;

  SimRankOptions options_;
  SimRankStats stats_;
  const BipartiteGraph* graph_ = nullptr;
  bool prepared_ = false;

  SideAdjacency query_adj_;  // query -> ads
  SideAdjacency ad_adj_;     // ad -> queries

  // The estimated diagonal corrections D_q / D_a.
  std::vector<double> diag_query_;
  std::vector<double> diag_ad_;

  // Run()-materialized raw rows: rows_*_[u] holds (v, score) for v > u,
  // ascending, score >= prune_threshold. Empty until Run().
  std::vector<SparseRow> rows_query_;
  std::vector<SparseRow> rows_ad_;
};

}  // namespace simrankpp

#endif  // SIMRANKPP_CORE_LINEARIZED_ENGINE_H_
