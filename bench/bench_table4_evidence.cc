// Regenerates Table 4: per-iteration evidence-based SimRank scores on the
// Figure 4 graphs (C1 = C2 = 0.8).
// Paper values: K2,2 column 0.3, 0.42, 0.468, 0.4872, 0.49488, 0.497952,
// 0.4991808; K1,2 column 0.4 constant — the ordering flips after the
// first iteration, as Theorem 7.1 guarantees.
#include <cstdio>

#include "core/closed_form.h"
#include "core/sample_graphs.h"
#include "core/sparse_engine.h"
#include "util/string_util.h"
#include "util/table_printer.h"

using namespace simrankpp;

int main() {
  BipartiteGraph k22 = MakeFigure4K22();
  BipartiteGraph k12 = MakeFigure4K12();

  TablePrinter table(
      "Table 4: evidence-based Simrank per-iteration scores on the "
      "Figure 4 graphs (C1 = C2 = 0.8)");
  table.SetHeader({"Iteration", "sim(camera, digital camera)  [K2,2]",
                   "sim(pc, camera)  [K1,2]", "closed form"});
  for (size_t k = 1; k <= 7; ++k) {
    SimRankOptions options;
    options.variant = SimRankVariant::kEvidence;
    options.iterations = k;
    options.prune_threshold = 0.0;  // exact mode: nothing pruned, no cap
    options.max_partners_per_node = 0;
    SparseSimRankEngine e22(options);
    SparseSimRankEngine e12(options);
    if (!e22.Run(k22).ok() || !e12.Run(k12).ok()) return 1;
    double s22 = e22.QueryScore(*k22.FindQuery("camera"),
                                *k22.FindQuery("digital camera"));
    double s12 =
        e12.QueryScore(*k12.FindQuery("pc"), *k12.FindQuery("camera"));
    table.AddRow({std::to_string(k), FormatDouble(s22, 7),
                  FormatDouble(s12, 7),
                  FormatDouble(EvidenceBasedKm2Score(2, k, 0.8, 0.8), 7)});
  }
  table.Print();
  std::printf(
      "\nPaper (Table 4): identical values. From iteration 2 onward the "
      "two-common-ad\npair outranks the single-common-ad pair, matching "
      "the intuition of Section 3.\n");
  return 0;
}
