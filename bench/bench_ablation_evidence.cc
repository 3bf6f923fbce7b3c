// Ablation: design choices DESIGN.md calls out.
//  (a) Evidence formula: geometric (Eq. 7.3) vs exponential (Eq. 7.4) —
//      the paper reports "no substantial differences"; verify.
//  (b) Zero-evidence floor: the coverage-preserving floor vs the literal
//      empty-sum-0 reading of Eq. 7.3 (which erases indirect pairs).
//  (c) Pruning: the canonical score threshold + partner cap against the
//      sparse engine in exact mode (nothing pruned, no cap).
#include <cstdio>

#include "core/sparse_engine.h"
#include "experiment_common.h"
#include "rewrite/rewriter.h"
#include "util/string_util.h"
#include "util/table_printer.h"

using namespace simrankpp;

int main() {
  ExperimentOutcome outcome = bench::RunCanonicalExperiment();
  const BipartiteGraph& dataset = outcome.dataset;

  // --- (a)+(b): evidence formula and floor, measured as rewrite overlap
  // against the canonical configuration.
  SimRankOptions base = bench::CanonicalConfig().simrank;
  base.variant = SimRankVariant::kEvidence;

  struct Config {
    const char* name;
    EvidenceFormula formula;
    double floor;
  };
  const Config configs[] = {
      {"geometric, floor 0.25 (canonical)", EvidenceFormula::kGeometric,
       0.25},
      {"exponential, floor 0.25", EvidenceFormula::kExponential, 0.25},
      {"geometric, literal (floor 0)", EvidenceFormula::kGeometric, 0.0},
  };

  TablePrinter table("Ablation: evidence formula and zero-evidence floor");
  table.SetHeader({"Configuration", "Coverage", "Mean depth",
                   "Stored query pairs"});
  for (const Config& config : configs) {
    SimRankOptions options = base;
    options.evidence_formula = config.formula;
    options.zero_evidence_floor = config.floor;
    SparseSimRankEngine engine(options);
    if (!engine.Run(dataset).ok()) return 1;
    SimilarityMatrix scores = engine.ExportQueryScores(1e-5);
    size_t pairs = scores.num_pairs();
    QueryRewriter rewriter("ablation", &dataset, std::move(scores), nullptr,
                           RewritePipelineOptions{});
    size_t covered = 0;
    size_t depth_total = 0;
    for (const std::string& query : outcome.eval_queries) {
      auto rewrites = rewriter.RewritesFor(query);
      if (!rewrites.ok()) continue;
      if (!rewrites->empty()) ++covered;
      depth_total += rewrites->size();
    }
    table.AddRow(
        {config.name,
         StringPrintf("%.0f%%", 100.0 * covered /
                                    static_cast<double>(
                                        outcome.eval_queries.size())),
         StringPrintf("%.2f", static_cast<double>(depth_total) /
                                  static_cast<double>(
                                      outcome.eval_queries.size())),
         FormatWithCommas(pairs)});
  }
  table.Print();

  // --- (c): what pruning costs, plain Simrank on the evaluation dataset.
  SimRankOptions pruned = bench::CanonicalConfig().simrank;
  SimRankOptions exact = pruned;
  exact.prune_threshold = 0.0;
  exact.max_partners_per_node = 0;
  SparseSimRankEngine pruned_engine(pruned);
  SparseSimRankEngine exact_engine(exact);
  if (!pruned_engine.Run(dataset).ok() || !exact_engine.Run(dataset).ok()) {
    return 1;
  }
  double max_diff = exact_engine.ExportQueryScores(0.0).MaxAbsDifference(
      pruned_engine.ExportQueryScores(0.0));
  std::printf(
      "\nPruning (evaluation dataset, %zu iterations): max |exact - pruned| "
      "= %.3e; stored query pairs %s exact, %s pruned\n",
      exact.iterations, max_diff,
      FormatWithCommas(exact_engine.stats().query_pairs).c_str(),
      FormatWithCommas(pruned_engine.stats().query_pairs).c_str());

  std::printf(
      "\nExpected: the two evidence formulas behave near-identically "
      "(paper, Section 7);\nthe literal floor-0 reading erases all "
      "pairs without common ads and collapses\ncoverage/depth — the "
      "documented reason this library defaults to a small floor.\n");
  return 0;
}
