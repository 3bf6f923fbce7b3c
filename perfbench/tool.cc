// perfbench_tool: the benchmark's in-process probes and its load
// generator, one binary with a subcommand each. run.py drives it; every
// subcommand prints one JSON line of results on stdout.
//
//   gen      generate a synthetic click graph (synth) and save its TSV
//   offline  replay `simrankpp compute` in-process, one span per layer
//   replay   reference TopK answers from an in-process RewriteService,
//            plus rewrite/core/protocol probes on the served stream
//   openloop open-loop TopK load against a serve-daemon (openloop.cc)

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <memory>

#include "common.h"
#include "core/engine_registry.h"
#include "core/snapshot.h"
#include "graph/graph_io.h"
#include "rewrite/rewrite_service.h"
#include "synth/click_graph_generator.h"

namespace perfbench {

std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

namespace {

using simrankpp::Result;
using simrankpp::Status;

double Seconds(int64_t start_ns) { return (NowNs() - start_ns) / 1e9; }

int Fail(const char* what, const Status& status) {
  std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
  return 1;
}

std::vector<simrankpp::TopKItem> ToItems(
    const std::vector<simrankpp::RewriteCandidate>& rewrites) {
  std::vector<simrankpp::TopKItem> items;
  items.reserve(rewrites.size());
  for (const auto& r : rewrites) items.push_back({r.text, r.score});
  return items;
}

std::string ReadFile(const char* path) {
  std::ifstream file(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(file)),
                     std::istreambuf_iterator<char>());
}

// LoadSnapshot round-trips when serializing what it read gives back the
// file's bytes.
bool RoundTrips(const simrankpp::SimilaritySnapshot& loaded,
                const std::string& bytes) {
  return simrankpp::SerializeSnapshot(loaded.matrix, loaded.method_name,
                                      loaded.side) == bytes;
}

// The options `simrankpp compute --method weighted` runs with.
simrankpp::SimRankOptions WeightedOptions(size_t threads) {
  simrankpp::SimRankOptions options;
  options.variant = simrankpp::SimRankVariant::kWeighted;
  options.prune_threshold = 1e-5;
  options.num_threads = threads;
  return options;
}

}  // namespace

// gen --queries N --ads A --categories C --subtopics S --seed X
//     --out GRAPH.tsv --labels QUERIES.txt
int RunGen(int argc, char** argv) {
  simrankpp::GeneratorOptions options;
  options.num_queries =
      std::strtoull(Flag(argc, argv, "--queries", "0"), nullptr, 10);
  options.num_ads = std::strtoull(Flag(argc, argv, "--ads", "0"), nullptr, 10);
  options.taxonomy.num_categories =
      std::strtoull(Flag(argc, argv, "--categories", "0"), nullptr, 10);
  options.taxonomy.subtopics_per_category =
      std::strtoull(Flag(argc, argv, "--subtopics", "0"), nullptr, 10);
  options.seed = std::strtoull(Flag(argc, argv, "--seed", "1"), nullptr, 10);
  const char* out = Flag(argc, argv, "--out", nullptr);
  const char* labels = Flag(argc, argv, "--labels", nullptr);
  if (options.num_queries == 0 || options.num_ads == 0 ||
      options.taxonomy.num_categories == 0 ||
      options.taxonomy.subtopics_per_category == 0 || out == nullptr ||
      labels == nullptr) {
    std::fprintf(stderr, "gen: missing or invalid arguments\n");
    return 2;
  }
  int64_t t0 = NowNs();
  Result<simrankpp::SyntheticClickGraph> world =
      simrankpp::GenerateClickGraph(options);
  if (!world.ok()) return Fail("generate", world.status());
  const double generate_s = Seconds(t0);
  const simrankpp::BipartiteGraph& graph = world->graph;
  if (Status st = simrankpp::SaveGraph(graph, out); !st.ok()) {
    return Fail("save graph", st);
  }
  std::ofstream list(labels, std::ios::trunc);
  for (simrankpp::QueryId q = 0; q < graph.num_queries(); ++q) {
    list << graph.query_label(q) << "\n";
  }
  if (!list.good()) {
    std::fprintf(stderr, "gen: cannot write %s\n", labels);
    return 1;
  }
  Summary summary;
  summary.Set("generate_s", generate_s);
  summary.Set("queries", static_cast<double>(graph.num_queries()));
  summary.Set("edges", static_cast<double>(graph.num_edges()));
  summary.Print();
  return 0;
}

// offline GRAPH --threads N --out SNAP --spans F
//
// The first four spans replay `simrankpp compute --method weighted` in a
// fresh process (load, first Run, export, save), so they cover the wall
// time of a compute child. The rest probe what the child cannot show:
// a second Run in the same process, a 1-thread Run, and a snapshot load
// that must reproduce the saved bytes exactly. Prints the work counts.
int RunOffline(int argc, char** argv) {
  if (argc < 1) return 2;
  const std::string graph_path = argv[0];
  const size_t threads =
      std::strtoull(Flag(argc, argv, "--threads", "0"), nullptr, 10);
  const char* out = Flag(argc, argv, "--out", nullptr);
  const char* spans_path = Flag(argc, argv, "--spans", nullptr);
  if (out == nullptr || spans_path == nullptr || threads == 0) {
    std::fprintf(stderr, "offline: missing or invalid arguments\n");
    return 2;
  }
  SpanLog spans(true);
  auto span = [&](const char* name, int parent, auto&& body) {
    int id = spans.Begin(name, parent);
    auto result = body();
    spans.End(id);
    return result;
  };

  const int root = spans.Begin("offline.compute");
  Result<simrankpp::BipartiteGraph> graph = span(
      "graph.load", root, [&] { return simrankpp::LoadGraph(graph_path); });
  if (!graph.ok()) return Fail("load graph", graph.status());
  const simrankpp::SimRankOptions options = WeightedOptions(threads);
  Result<std::unique_ptr<simrankpp::SimRankEngine>> engine =
      simrankpp::CreateSimRankEngine("sparse", options);
  if (!engine.ok()) return Fail("engine", engine.status());
  Status run = span("core.engine_run", root,
                    [&] { return (*engine)->Run(*graph); });
  if (!run.ok()) return Fail("run", run);
  simrankpp::SimilarityMatrix scores = span("core.export", root, [&] {
    return (*engine)->ExportQueryScores(1e-6);
  });
  const std::string method = simrankpp::SimRankVariantName(options.variant);
  Status saved = span("core.snapshot_save", root, [&] {
    return simrankpp::SaveSnapshot(scores, method, out);
  });
  if (!saved.ok()) return Fail("save snapshot", saved);
  spans.End(root);

  Result<simrankpp::SimilaritySnapshot> loaded = span(
      "core.snapshot_load", -1, [&] { return simrankpp::LoadSnapshot(out); });
  if (!loaded.ok()) return Fail("load snapshot", loaded.status());
  const std::string bytes = ReadFile(out);
  if (!RoundTrips(*loaded, bytes)) {
    std::fprintf(stderr, "offline: snapshot does not round-trip\n");
    return 3;
  }

  for (size_t t : {threads, size_t{1}}) {
    Result<std::unique_ptr<simrankpp::SimRankEngine>> again =
        simrankpp::CreateSimRankEngine("sparse", WeightedOptions(t));
    if (!again.ok()) return Fail("engine", again.status());
    Status st = span(t == threads ? "core.engine_run_warm"
                                  : "core.engine_run_1t",
                     -1, [&] { return (*again)->Run(*graph); });
    if (!st.ok()) return Fail("run", st);
  }
  if (!spans.Write(spans_path)) {
    std::fprintf(stderr, "offline: cannot write spans\n");
    return 1;
  }
  const simrankpp::SimRankStats& stats = (*engine)->stats();
  Summary summary;
  summary.Set("core.rescored_pairs", static_cast<double>(stats.rescored_pairs));
  summary.Set("core.reused_pairs", static_cast<double>(stats.reused_pairs));
  summary.Set("core.query_pairs", static_cast<double>(stats.query_pairs));
  summary.Set("core.snapshot_bytes", static_cast<double>(bytes.size()));
  summary.Print();
  return 0;
}

// replay --graph G [--snapshot S] [--on-demand] --queries Q.txt
//        --digests OUT [--stream IDX.txt] [--batch B] [--spans F]
//
// Checks that the snapshot round-trips through LoadSnapshot, builds the
// RewriteService a daemon tenant with the same manifest entry would
// build, writes the digest of its TopK answer for every line of
// Q.txt (the reference the daemon's replies must match), then times the
// layers on the served stream (query indices into Q.txt, in send order).
int RunReplay(int argc, char** argv) {
  const char* graph_path = Flag(argc, argv, "--graph", nullptr);
  const char* snapshot = Flag(argc, argv, "--snapshot", nullptr);
  const char* queries_path = Flag(argc, argv, "--queries", nullptr);
  const char* digests_path = Flag(argc, argv, "--digests", nullptr);
  const char* stream_path = Flag(argc, argv, "--stream", nullptr);
  const char* spans_path = Flag(argc, argv, "--spans", nullptr);
  bool on_demand = false;
  for (int i = 0; i < argc; ++i) {
    on_demand |= std::strcmp(argv[i], "--on-demand") == 0;
  }
  const size_t batch = std::max<size_t>(
      1, std::strtoull(Flag(argc, argv, "--batch", "1"), nullptr, 10));
  if (graph_path == nullptr || queries_path == nullptr ||
      digests_path == nullptr || (snapshot == nullptr && !on_demand)) {
    std::fprintf(stderr, "replay: missing or invalid arguments\n");
    return 2;
  }
  SpanLog spans(spans_path != nullptr);
  Summary summary;
  auto timed = [&](const char* name, auto&& body) {
    int id = spans.Begin(name);
    int64_t t0 = NowNs();
    auto result = body();
    summary.Set(std::string(name) + "_s", Seconds(t0));
    spans.End(id);
    return result;
  };

  Result<simrankpp::BipartiteGraph> graph =
      timed("graph.load", [&] { return simrankpp::LoadGraph(graph_path); });
  if (!graph.ok()) return Fail("load graph", graph.status());
  if (snapshot != nullptr) {
    Result<simrankpp::SimilaritySnapshot> loaded =
        timed("core.snapshot_load",
              [&] { return simrankpp::LoadSnapshot(snapshot); });
    if (!loaded.ok()) return Fail("load snapshot", loaded.status());
    if (!RoundTrips(*loaded, ReadFile(snapshot))) {
      std::fprintf(stderr, "replay: snapshot %s does not round-trip\n",
                   snapshot);
      return 3;
    }
  }
  // Same assembly as a manifest tenant (serve/snapshot_store.cc).
  simrankpp::RewriteServiceBuilder builder;
  builder.WithGraph(&*graph);
  if (snapshot != nullptr) builder.WithSnapshot(snapshot);
  if (on_demand) {
    builder.WithOnDemandEngine("linearized", simrankpp::SimRankOptions{});
  }
  Result<std::unique_ptr<simrankpp::RewriteService>> service =
      timed("rewrite.service_build", [&] { return builder.Build(); });
  if (!service.ok()) return Fail("build service", service.status());

  const std::vector<std::string> queries = ReadLines(queries_path);
  std::vector<simrankpp::QueryId> ids;
  for (const std::string& text : queries) {
    Result<uint32_t> id = (*service)->rewriter().ResolveNode(text);
    if (!id.ok()) return Fail("resolve", id.status());
    ids.push_back(*id);
  }
  FILE* digests = std::fopen(digests_path, "w");
  if (digests == nullptr) return 1;
  const auto answers = (*service)->TopKBatch(ids, kTopK);
  for (const auto& answer : answers) {
    std::fprintf(digests, "%016llx\n",
                 static_cast<unsigned long long>(ReplyDigest(ToItems(answer))));
  }
  if (std::fclose(digests) != 0) return 1;

  std::vector<simrankpp::QueryId> stream;
  if (stream_path != nullptr) {
    for (const std::string& line : ReadLines(stream_path)) {
      const size_t index = std::strtoull(line.c_str(), nullptr, 10);
      if (index >= ids.size()) {
        std::fprintf(stderr, "replay: stream index out of range\n");
        return 2;
      }
      stream.push_back(ids[index]);
    }
  }
  if (!stream.empty()) {
    const double n = static_cast<double>(stream.size());
    int id = spans.Begin("rewrite.topk");
    int64_t t0 = NowNs();
    for (simrankpp::QueryId q : stream) (*service)->TopK(q, kTopK);
    summary.Set("rewrite.topk_us", Seconds(t0) * 1e6 / n);
    spans.End(id);

    id = spans.Begin("rewrite.topk_batch");
    t0 = NowNs();
    for (size_t i = 0; i < stream.size(); i += batch) {
      const size_t len = std::min(batch, stream.size() - i);
      (*service)->TopKBatch({stream.data() + i, len}, kTopK);
    }
    summary.Set("rewrite.topk_batch_us_per_query", Seconds(t0) * 1e6 / n);
    spans.End(id);

    // Client-side wire cost per request: encode the request, parse it,
    // encode the response, parse it.
    std::vector<std::vector<simrankpp::TopKItem>> replies;
    for (size_t i = 0; i < std::min<size_t>(stream.size(), 2000); ++i) {
      replies.push_back(ToItems((*service)->TopK(stream[i], kTopK)));
    }
    id = spans.Begin("serve.protocol");
    t0 = NowNs();
    std::string frame;
    simrankpp::TopKRequest request;
    std::vector<simrankpp::TopKItem> parsed;
    size_t checked = 0;
    for (size_t i = 0; i < stream.size(); ++i) {
      frame.clear();
      simrankpp::AppendTopKRequestFrame(
          {"tenant", graph->query_label(stream[i]), kTopK},
          static_cast<uint32_t>(i), &frame);
      checked += simrankpp::ParseTopKRequestPayload(
          std::string_view(frame).substr(simrankpp::kFrameHeaderBytes),
          &request);
      frame.clear();
      simrankpp::AppendTopKResponseFrame(static_cast<uint32_t>(i),
                                         replies[i % replies.size()], &frame);
      checked += simrankpp::ParseTopKResponsePayload(
          std::string_view(frame).substr(simrankpp::kFrameHeaderBytes),
          &parsed);
    }
    summary.Set("serve.protocol_ns", Seconds(t0) * 1e9 / n);
    spans.End(id);
    if (checked != 2 * stream.size()) {
      std::fprintf(stderr, "replay: protocol round trip failed\n");
      return 3;
    }
  }

  if (on_demand && !stream.empty()) {
    // Cold-row cost without the cache: a fresh engine, then ScoredRow for
    // the first distinct queries of the stream at the service's depth.
    Result<std::unique_ptr<simrankpp::SimRankEngine>> engine =
        simrankpp::CreateSimRankEngine("linearized",
                                       simrankpp::SimRankOptions{});
    if (!engine.ok()) return Fail("engine", engine.status());
    auto* scorer = dynamic_cast<simrankpp::OnDemandScorer*>(engine->get());
    if (scorer == nullptr) return 2;
    Status prepared = timed("core.linearized_prepare",
                            [&] { return scorer->Prepare(*graph); });
    if (!prepared.ok()) return Fail("prepare", prepared);
    std::vector<simrankpp::QueryId> cold = stream;
    std::sort(cold.begin(), cold.end());
    cold.erase(std::unique(cold.begin(), cold.end()), cold.end());
    cold.resize(std::min<size_t>(cold.size(), 200));
    int id = spans.Begin("core.linearized_row");
    int64_t t0 = NowNs();
    for (simrankpp::QueryId q : cold) {
      Result<std::vector<simrankpp::ScoredNode>> row =
          scorer->ScoredRow(false, q, 1e-6, 100);
      if (!row.ok()) return Fail("scored row", row.status());
    }
    summary.Set("core.linearized_row_us",
                Seconds(t0) * 1e6 / static_cast<double>(cold.size()));
    spans.End(id);
  }
  if (!spans.Write(spans_path == nullptr ? "" : spans_path)) return 1;
  summary.Print();
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_tool gen|offline|replay|openloop ...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "gen") return perfbench::RunGen(argc - 2, argv + 2);
  if (cmd == "offline") return perfbench::RunOffline(argc - 2, argv + 2);
  if (cmd == "replay") return perfbench::RunReplay(argc - 2, argv + 2);
  if (cmd == "openloop") return perfbench::RunOpenLoop(argc - 2, argv + 2);
  std::fprintf(stderr, "perfbench_tool: unknown subcommand %s\n", cmd.c_str());
  return 2;
}
