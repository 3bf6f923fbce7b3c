// Snapshot writer/reader benchmark: the serialize pass (sort + record
// encode + checksum) that PR 5 parallelized over the shared pool, plus
// the LoadSnapshot parse path a serving process pays on every hot
// reload. Measures in-memory SerializeSnapshot separately from the
// file-backed SaveSnapshot so disk noise cannot hide an encode
// regression. Baseline/after numbers live in docs/BENCHMARKS.md.
//
//   bench_perf_snapshot [--smoke] [--repeats N] [--json <path>]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/snapshot.h"
#include "perf_harness.h"
#include "util/string_util.h"

namespace simrankpp {
namespace {

// A dense-ish random matrix of the size a Table-5 subgraph exports:
// deterministic (seeded LCG) so every run serializes identical bytes.
SimilarityMatrix BenchMatrix(size_t num_nodes, size_t target_pairs) {
  SimilarityMatrix matrix(num_nodes);
  uint64_t state = 0x9e3779b97f4a7c15ull;
  while (matrix.num_pairs() < target_pairs) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    uint32_t u = static_cast<uint32_t>((state >> 33) % num_nodes);
    uint32_t v = static_cast<uint32_t>((state >> 11) % num_nodes);
    if (u == v) continue;
    matrix.Set(u, v, 1.0 / static_cast<double>(1 + (state % 4096)));
  }
  return matrix;
}

int Main(int argc, char** argv) {
  bool smoke = bench::HasFlag(argc, argv, "--smoke");
  const size_t repeats = bench::RepeatsFlag(
      argc, argv, smoke ? "2" : "5",
      "bench_perf_snapshot [--smoke] [--repeats N] [--json "
      "<path>]");
  const char* json_path = bench::FlagValue(argc, argv, "--json", "");

  const size_t num_nodes = smoke ? 2000 : 8000;
  const size_t target_pairs = smoke ? 200000 : 2000000;
  SimilarityMatrix matrix = BenchMatrix(num_nodes, target_pairs);
  std::string path = "/tmp/bench_perf_snapshot.snap";

  bench::PerfTable table(
      StringPrintf("snapshot writer/reader (%zu nodes, %zu pairs)",
                   matrix.num_nodes(), matrix.num_pairs()),
      repeats);
  std::string note = StringPrintf("%zu pairs", matrix.num_pairs());

  size_t serialized_bytes = 0;
  table.Run(StringPrintf("serialize/%zu", matrix.num_pairs()), [&] {
    serialized_bytes = SerializeSnapshot(matrix, "bench").size();
    return note;
  });
  table.Run(StringPrintf("save/%zu", matrix.num_pairs()), [&] {
    Status status = SaveSnapshot(matrix, "bench", path);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      std::exit(1);
    }
    return note;
  });
  table.Run(StringPrintf("load/%zu", matrix.num_pairs()), [&] {
    Result<SimilaritySnapshot> snapshot = LoadSnapshot(path);
    if (!snapshot.ok() ||
        snapshot->matrix.num_pairs() != matrix.num_pairs()) {
      std::fprintf(stderr, "reload mismatch\n");
      std::exit(1);
    }
    return note;
  });
  table.Print();
  std::printf("serialized bytes: %zu\n", serialized_bytes);
  std::remove(path.c_str());

  if (json_path[0] != '\0') {
    bench::JsonReport report;
    report.Add(table);
    if (!report.WriteFile(json_path)) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 1;
    }
    std::printf("wrote %s\n", json_path);
  }
  return 0;
}

}  // namespace
}  // namespace simrankpp

int main(int argc, char** argv) { return simrankpp::Main(argc, argv); }
