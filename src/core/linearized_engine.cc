#include "core/linearized_engine.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/evidence.h"
#include "util/simd/simd.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace simrankpp {

namespace {

// Chunks per node sweep. Fixed — not a function of the thread count — so
// the work partition is identical for every num_threads setting. Results
// do not depend on it either way (every write lands in a per-node slot);
// 64 matches the sparse engine's sharding granularity.
constexpr size_t kSweepChunks = 64;

// Safety cap on Jacobi sweeps for tolerances set tighter than the
// truncation error lets the residual reach.
constexpr size_t kMaxDiagSweeps = 50;

// Binary search of an ascending-by-node row.
double FindScore(const std::vector<ScoredNode>& row, uint32_t v) {
  auto it = std::lower_bound(
      row.begin(), row.end(), v,
      [](const ScoredNode& entry, uint32_t node) { return entry.node < node; });
  if (it != row.end() && it->node == v) return it->score;
  return 0.0;
}

}  // namespace

LinearizedSimRankEngine::LinearizedSimRankEngine(SimRankOptions options)
    : options_(std::move(options)) {}

Status LinearizedSimRankEngine::BindGraph(const BipartiteGraph& graph) {
  SRPP_RETURN_NOT_OK(options_.Validate());
  if (options_.variant == SimRankVariant::kWeighted) {
    return Status::NotImplemented(
        "the linearized engine supports plain and evidence-based Simrank "
        "only: weighted Simrank's evidence factors enter the recursion "
        "itself and do not linearize (use the sparse engine)");
  }
  double decay = options_.c1 * options_.c2;
  if (decay >= 1.0) {
    return Status::InvalidArgument(StringPrintf(
        "the linearized power series requires C1*C2 < 1, got C1=%f C2=%f",
        options_.c1, options_.c2));
  }
  graph_ = &graph;

  // Flatten both adjacency directions. Multi-edges stay as repeated
  // neighbor entries: plain SimRank's uniform 1/N transition is over edge
  // endpoints, exactly like the sparse engine's per-edge loops.
  auto build_side = [&graph](bool ad_side) {
    SideAdjacency adj;
    size_t n = ad_side ? graph.num_ads() : graph.num_queries();
    adj.offsets.assign(n + 1, 0);
    adj.inv_degree.assign(n, 0.0);
    for (size_t u = 0; u < n; ++u) {
      size_t degree = ad_side ? graph.AdDegree(static_cast<AdId>(u))
                              : graph.QueryDegree(static_cast<QueryId>(u));
      adj.offsets[u + 1] = adj.offsets[u] + degree;
      if (degree > 0) adj.inv_degree[u] = 1.0 / static_cast<double>(degree);
    }
    adj.neighbors.resize(adj.offsets[n]);
    for (size_t u = 0; u < n; ++u) {
      size_t at = adj.offsets[u];
      if (ad_side) {
        for (EdgeId e : graph.AdEdges(static_cast<AdId>(u))) {
          adj.neighbors[at++] = graph.edge_query(e);
        }
      } else {
        for (EdgeId e : graph.QueryEdges(static_cast<QueryId>(u))) {
          adj.neighbors[at++] = graph.edge_ad(e);
        }
      }
      std::sort(adj.neighbors.begin() + adj.offsets[u],
                adj.neighbors.begin() + adj.offsets[u + 1]);
    }
    return adj;
  };
  query_adj_ = build_side(/*ad_side=*/false);
  ad_adj_ = build_side(/*ad_side=*/true);
  return Status::OK();
}

void LinearizedSimRankEngine::WalkStep(const SideAdjacency& own_adj,
                                       const SideAdjacency& opp_adj,
                                       const SparseRow& from,
                                       WorkVec* opp_out, WorkVec* own_out) {
  // The walk propagation (here and in RawRow's backward pass) is a
  // SCATTER — each source spreads mass to its neighbors' slots — which
  // the gather-oriented SIMD kernels cannot express without conflict
  // detection; it stays scalar by design. The vectorized piece of this
  // engine is the diagonal estimation's dot products (EstimateDiagonals).
  //
  // t = A^T w with A the own side's row-normalized adjacency: mass leaves
  // each source node split evenly over its edges.
  opp_out->Clear();
  for (const ScoredNode& entry : from) {
    double spread = entry.score * own_adj.inv_degree[entry.node];
    if (spread == 0.0) continue;
    for (uint32_t b : own_adj.Neighbors(entry.node)) opp_out->Add(b, spread);
  }
  opp_out->SortTouched();

  // w' = B^T t with B the opposite side's row-normalized adjacency.
  own_out->Clear();
  for (uint32_t b : opp_out->touched) {
    double spread = opp_out->value[b] * opp_adj.inv_degree[b];
    if (spread == 0.0) continue;
    for (uint32_t v : opp_adj.Neighbors(b)) own_out->Add(v, spread);
  }
  own_out->SortTouched();
}

LinearizedSimRankEngine::DiagForm LinearizedSimRankEngine::BuildDiagForm(
    bool ad_side, uint32_t node, Scratch* scratch) const {
  const SideAdjacency& own_adj = ad_side ? ad_adj_ : query_adj_;
  const SideAdjacency& opp_adj = ad_side ? query_adj_ : ad_adj_;
  const double cross_factor = ad_side ? options_.c2 : options_.c1;
  const double decay = options_.c1 * options_.c2;

  // The truncated diagonal condition at `node`,
  //   F = sum_k decay^k [ sum_v D_own[v] w_k[v]^2
  //                       + cross_factor * sum_b D_opp[b] t_k[b]^2 ],
  // with w_k the forward walk iterate and t_k its opposite-side
  // projection, collected as coefficients on D_own / D_opp.
  WorkVec& own_coeff = scratch->result;
  WorkVec& cross_coeff = scratch->cross;
  own_coeff.Clear();
  cross_coeff.Clear();

  SparseRow walk = {{node, 1.0}};
  double weight = 1.0;
  for (size_t k = 0;; ++k) {
    for (const ScoredNode& entry : walk) {
      own_coeff.Add(entry.node, weight * entry.score * entry.score);
    }
    WalkStep(own_adj, opp_adj, walk, &scratch->opposite, &scratch->own);
    for (uint32_t b : scratch->opposite.touched) {
      double v = scratch->opposite.value[b];
      cross_coeff.Add(b, weight * cross_factor * v * v);
    }
    if (k == options_.linearized_series_depth ||
        scratch->own.touched.empty()) {
      break;
    }
    walk.clear();
    scratch->own.CompactInto(&walk);
    weight *= decay;
  }

  DiagForm form;
  // k = 0 contributes w_0[node]^2 = 1, so alpha >= 1 always.
  form.alpha = own_coeff.value[node];
  own_coeff.CompactInto(&form.own_nodes, &form.own_coeffs);
  cross_coeff.CompactInto(&form.cross_nodes, &form.cross_coeffs);
  return form;
}

double LinearizedSimRankEngine::EstimateDiagonals(
    const std::vector<DiagForm>& forms_q,
    const std::vector<DiagForm>& forms_a) {
  size_t nq = forms_q.size();
  size_t na = forms_a.size();
  std::vector<double> next_q(nq, 0.0);
  std::vector<double> next_a(na, 0.0);
  std::vector<double> residual_q(nq, 0.0);
  std::vector<double> residual_a(na, 0.0);

  // One Jacobi half-sweep: evaluate every node's condition against the
  // CURRENT diagonals and stage the update into per-node slots, so the
  // sweep parallelizes without ordering effects and the result is
  // bit-identical for any thread count. Each condition is two sparse dot
  // products over the SoA forms, run through the SIMD dense-gather kernel
  // (8-lane deterministic order; the table is an immutable static, safe
  // to share across the pool's workers).
  const simd::KernelTable& kern = simd::ActiveKernels();
  auto sweep_side = [&](const std::vector<DiagForm>& forms,
                        const std::vector<double>& d_own,
                        const std::vector<double>& d_opp,
                        std::vector<double>* next,
                        std::vector<double>* residual) {
    auto fn = [&forms, &d_own, &d_opp, &kern, next, residual](
                  size_t, size_t begin, size_t end) {
      for (size_t u = begin; u < end; ++u) {
        const DiagForm& form = forms[u];
        double f = kern.gather_sum_weighted(
                       d_own.data(), form.own_nodes.data(),
                       form.own_coeffs.data(), 1.0, form.own_nodes.size()) +
                   kern.gather_sum_weighted(
                       d_opp.data(), form.cross_nodes.data(),
                       form.cross_coeffs.data(), 1.0, form.cross_nodes.size());
        double violation = 1.0 - f;
        (*residual)[u] = std::fabs(violation);
        // A diagonal correction outside [0, 1] is non-physical (scores
        // are in [0, 1] with unit diagonal); clamping keeps transients
        // from overshooting.
        (*next)[u] = std::clamp(d_own[u] + violation / form.alpha, 0.0, 1.0);
      }
    };
    SharedThreadPool().ParallelForChunked(forms.size(), kSweepChunks, fn,
                                         options_.num_threads);
  };

  // Cross-side Gauss-Seidel: the ad half-sweep reads the query diagonals
  // JUST updated in the same sweep. The two sides are strongly coupled
  // (every query condition carries c1-weighted ad-diagonal mass and vice
  // versa), and updating both simultaneously oscillates — on K_{1,2} the
  // simultaneous-update iteration matrix has spectral radius ~0.95, the
  // staggered one ~0.3. Within a side the update stays Jacobi so the
  // per-node work parallelizes freely.
  double residual = 0.0;
  for (size_t sweep = 0; sweep < kMaxDiagSweeps; ++sweep) {
    sweep_side(forms_q, diag_query_, diag_ad_, &next_q, &residual_q);
    std::swap(diag_query_, next_q);
    sweep_side(forms_a, diag_ad_, diag_query_, &next_a, &residual_a);
    std::swap(diag_ad_, next_a);
    // Residuals are measured against the diagonals each half-sweep READ;
    // the final update only tightens them further (the iteration is a
    // contraction by the time the residual is this small).
    residual = 0.0;
    for (double v : residual_q) residual = std::max(residual, v);
    for (double v : residual_a) residual = std::max(residual, v);
    ++stats_.iterations_run;
    if (residual <= options_.linearized_diag_tolerance) break;
  }
  return residual;
}

Status LinearizedSimRankEngine::Prepare(const BipartiteGraph& graph) {
  Stopwatch timer;
  prepared_ = false;
  rows_query_.clear();
  rows_ad_.clear();
  SRPP_RETURN_NOT_OK(BindGraph(graph));

  stats_ = SimRankStats();
  stats_.simd_level = simd::ActiveKernels().name;
  // Same pool discipline as the other engines: every sweep runs on the
  // process-wide pool capped at num_threads participants.
  stats_.threads_used = SharedThreadPool().Participants(options_.num_threads);

  size_t nq = graph.num_queries();
  size_t na = graph.num_ads();
  diag_query_.assign(nq, 1.0 - options_.c1);
  diag_ad_.assign(na, 1.0 - options_.c2);

  // The walk iterates never depend on the diagonals, so each node's
  // condition is precomputed once as a linear form; the Jacobi sweeps
  // are then cheap sparse dot products.
  std::vector<DiagForm> forms_q(nq);
  std::vector<DiagForm> forms_a(na);
  auto build_forms = [&](bool ad_side, std::vector<DiagForm>* forms) {
    auto fn = [this, ad_side, forms, nq, na](size_t, size_t begin,
                                             size_t end) {
      Scratch scratch;
      scratch.Resize(ad_side ? na : nq, ad_side ? nq : na);
      for (size_t u = begin; u < end; ++u) {
        (*forms)[u] =
            BuildDiagForm(ad_side, static_cast<uint32_t>(u), &scratch);
      }
    };
    SharedThreadPool().ParallelForChunked(forms->size(), kSweepChunks, fn,
                                         options_.num_threads);
  };
  build_forms(/*ad_side=*/false, &forms_q);
  build_forms(/*ad_side=*/true, &forms_a);

  stats_.last_delta = EstimateDiagonals(forms_q, forms_a);

  prepared_ = true;
  stats_.elapsed_seconds = timer.ElapsedSeconds();
  return Status::OK();
}

LinearizedSimRankEngine::SparseRow LinearizedSimRankEngine::RawRow(
    bool ad_side, uint32_t node, Scratch* scratch) const {
  const SideAdjacency& own_adj = ad_side ? ad_adj_ : query_adj_;
  const SideAdjacency& opp_adj = ad_side ? query_adj_ : ad_adj_;
  const std::vector<double>& diag_own = ad_side ? diag_ad_ : diag_query_;
  const std::vector<double>& diag_opp = ad_side ? diag_query_ : diag_ad_;
  const double cross_factor = ad_side ? options_.c2 : options_.c1;
  const double decay = options_.c1 * options_.c2;

  // Forward: w_k = (M^T)^k e_node for k = 0..T, stopping early once the
  // walk dies out (isolated neighborhoods).
  std::vector<SparseRow> walk;
  walk.reserve(options_.linearized_series_depth + 1);
  walk.push_back({{node, 1.0}});
  for (size_t k = 0; k < options_.linearized_series_depth; ++k) {
    WalkStep(own_adj, opp_adj, walk.back(), &scratch->opposite,
             &scratch->own);
    if (scratch->own.touched.empty()) break;
    SparseRow next;
    scratch->own.CompactInto(&next);
    walk.push_back(std::move(next));
  }

  // Backward: r <- decay * M r + C w_k for k = T..0 evaluates the
  // truncated series sum_k decay^k M^k C (M^T)^k e_node in Horner form;
  // r ends as the raw score row. C v = D_own ∘ v
  // + cross_factor * A (D_opp ∘ (A^T v)) with A the own side's
  // row-normalized adjacency. Note M r spreads with TARGET-side degree
  // factors (M = A B row-normalized per matrix), while A^T v spreads
  // with source factors — the two loops below differ only in that.
  WorkVec& r = scratch->result;
  r.Clear();
  WorkVec& t = scratch->opposite;
  for (size_t k = walk.size(); k-- > 0;) {
    WorkVec& next = scratch->own;
    next.Clear();

    // decay * M r.
    t.Clear();
    for (uint32_t p : r.touched) {
      double v = r.value[p];
      if (v == 0.0) continue;
      for (uint32_t a : own_adj.Neighbors(p)) {
        t.Add(a, v * opp_adj.inv_degree[a]);
      }
    }
    t.SortTouched();
    for (uint32_t a : t.touched) {
      double v = decay * t.value[a];
      if (v == 0.0) continue;
      for (uint32_t q : opp_adj.Neighbors(a)) {
        next.Add(q, v * own_adj.inv_degree[q]);
      }
    }

    // + C w_k: cross part first (A^T w_k, then D_opp-weighted return
    // trip), then the own-side diagonal part.
    t.Clear();
    for (const ScoredNode& entry : walk[k]) {
      double spread = entry.score * own_adj.inv_degree[entry.node];
      if (spread == 0.0) continue;
      for (uint32_t a : own_adj.Neighbors(entry.node)) t.Add(a, spread);
    }
    t.SortTouched();
    for (uint32_t a : t.touched) {
      double v = cross_factor * diag_opp[a] * t.value[a];
      if (v == 0.0) continue;
      for (uint32_t q : opp_adj.Neighbors(a)) {
        next.Add(q, v * own_adj.inv_degree[q]);
      }
    }
    for (const ScoredNode& entry : walk[k]) {
      next.Add(entry.node, diag_own[entry.node] * entry.score);
    }

    next.SortTouched();
    // r <- next (vector swaps; the stale buffer is cleared next round).
    std::swap(scratch->result, scratch->own);
  }

  SparseRow row;
  row.reserve(r.touched.size());
  for (uint32_t i : r.touched) {
    // The diagonal is implicit 1 everywhere in this codebase; the row
    // carries off-diagonal mass only.
    if (i == node) continue;
    double v = r.value[i];
    if (v > 0.0) row.push_back({i, v});
  }
  return row;
}

Status LinearizedSimRankEngine::Run(const BipartiteGraph& graph) {
  Stopwatch timer;
  SRPP_RETURN_NOT_OK(Prepare(graph));

  size_t nq = graph.num_queries();
  size_t na = graph.num_ads();
  rows_query_.assign(nq, {});
  rows_ad_.assign(na, {});

  // Every row lands in its own slot and each row's computation is
  // self-contained, so exports are bit-identical for any thread count.
  const double prune = options_.prune_threshold;
  auto materialize = [&](bool ad_side, std::vector<SparseRow>* rows) {
    auto fn = [this, ad_side, rows, nq, na, prune](size_t, size_t begin,
                                                   size_t end) {
      Scratch scratch;
      scratch.Resize(ad_side ? na : nq, ad_side ? nq : na);
      for (size_t u = begin; u < end; ++u) {
        SparseRow raw = RawRow(ad_side, static_cast<uint32_t>(u), &scratch);
        SparseRow& out = (*rows)[u];
        for (const ScoredNode& entry : raw) {
          // Upper-triangle storage: the mirror entry is recovered by the
          // symmetric lookup in QueryScore/AdScore.
          if (entry.node > u && entry.score >= prune) out.push_back(entry);
        }
        out.shrink_to_fit();
      }
    };
    SharedThreadPool().ParallelForChunked(rows->size(), kSweepChunks, fn,
                                         options_.num_threads);
  };
  materialize(/*ad_side=*/false, &rows_query_);
  materialize(/*ad_side=*/true, &rows_ad_);

  size_t query_pairs = 0;
  for (const SparseRow& row : rows_query_) query_pairs += row.size();
  size_t ad_pairs = 0;
  for (const SparseRow& row : rows_ad_) ad_pairs += row.size();
  stats_.query_pairs = query_pairs;
  stats_.ad_pairs = ad_pairs;
  stats_.elapsed_seconds = timer.ElapsedSeconds();
  return Status::OK();
}

double LinearizedSimRankEngine::VariantFactor(bool ad_side, uint32_t u,
                                              uint32_t v) const {
  if (options_.variant != SimRankVariant::kEvidence) return 1.0;
  size_t common = ad_side ? graph_->CountCommonQueries(u, v)
                          : graph_->CountCommonAds(u, v);
  return EvidenceWithFloor(common, options_.evidence_formula,
                           options_.zero_evidence_floor);
}

double LinearizedSimRankEngine::QueryScore(QueryId q1, QueryId q2) const {
  if (q1 == q2) return 1.0;
  uint32_t u = std::min(q1, q2);
  uint32_t v = std::max(q1, q2);
  if (v >= rows_query_.size()) return 0.0;
  double raw = FindScore(rows_query_[u], v);
  if (raw == 0.0) return 0.0;
  return raw * VariantFactor(/*ad_side=*/false, q1, q2);
}

double LinearizedSimRankEngine::AdScore(AdId a1, AdId a2) const {
  if (a1 == a2) return 1.0;
  uint32_t u = std::min(a1, a2);
  uint32_t v = std::max(a1, a2);
  if (v >= rows_ad_.size()) return 0.0;
  double raw = FindScore(rows_ad_[u], v);
  if (raw == 0.0) return 0.0;
  return raw * VariantFactor(/*ad_side=*/true, a1, a2);
}

SimilarityMatrix LinearizedSimRankEngine::ExportSide(bool ad_side,
                                                     double min_score) const {
  const std::vector<SparseRow>& rows = ad_side ? rows_ad_ : rows_query_;
  SimilarityMatrix matrix(rows.size());
  for (uint32_t u = 0; u < rows.size(); ++u) {
    for (const ScoredNode& entry : rows[u]) {
      double score = entry.score * VariantFactor(ad_side, u, entry.node);
      if (score >= min_score && score != 0.0) {
        matrix.Set(u, entry.node, score);
      }
    }
  }
  matrix.Finalize();
  return matrix;
}

SimilarityMatrix LinearizedSimRankEngine::ExportQueryScores(
    double min_score) const {
  return ExportSide(/*ad_side=*/false, min_score);
}

SimilarityMatrix LinearizedSimRankEngine::ExportAdScores(
    double min_score) const {
  return ExportSide(/*ad_side=*/true, min_score);
}

Result<std::vector<ScoredNode>> LinearizedSimRankEngine::ScoredRow(
    bool ad_side, uint32_t node, double min_score,
    size_t max_partners) const {
  if (!prepared_) {
    return Status::FailedPrecondition(
        "ScoredRow called before Prepare() succeeded");
  }
  size_t n = ad_side ? graph_->num_ads() : graph_->num_queries();
  if (node >= n) {
    return Status::OutOfRange(StringPrintf("%s id %u out of range (graph "
                                           "has %zu)",
                                           ad_side ? "ad" : "query", node,
                                           n));
  }
  Scratch scratch;
  scratch.Resize(ad_side ? graph_->num_ads() : graph_->num_queries(),
                 ad_side ? graph_->num_queries() : graph_->num_ads());
  std::vector<ScoredNode> row = RawRow(ad_side, node, &scratch);
  size_t kept = 0;
  for (const ScoredNode& entry : row) {
    double score = entry.score * VariantFactor(ad_side, node, entry.node);
    if (score > min_score) row[kept++] = {entry.node, score};
  }
  row.resize(kept);
  // Descending score; stable over the ascending-node input, so ties break
  // by ascending node id.
  std::stable_sort(row.begin(), row.end(),
                   [](const ScoredNode& lhs, const ScoredNode& rhs) {
                     return lhs.score > rhs.score;
                   });
  if (max_partners > 0 && row.size() > max_partners) row.resize(max_partners);
  return row;
}

}  // namespace simrankpp
