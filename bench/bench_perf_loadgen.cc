// serve-daemon throughput/latency benchmark driven by the loadgen
// harness (loadgen.h). Two modes:
//
//   bench_perf_loadgen [--smoke] [--repeats N] [--json <path>]
//       Self-contained: builds a two-tenant serving world under /tmp,
//       starts an in-process ServeDaemon on an ephemeral port, and
//       measures closed-loop TopK load at several connection/pipeline
//       shapes. This is the mode the CI regression gate tracks.
//
//   bench_perf_loadgen --connect HOST:PORT [--smoke]
//       Drives an already-running daemon (the CI e2e smoke): one burst
//       against tenant "alpha"/"beta", prints the LoadReport, exits 0
//       only when every request got an ok response.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/engine_registry.h"
#include "core/snapshot.h"
#include "graph/graph_io.h"
#include "loadgen.h"
#include "perf_harness.h"
#include "serve/daemon.h"
#include "synth/click_graph_generator.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/string_util.h"

namespace simrankpp {
namespace {

// Deterministic synthetic click graph (the serve_test recipe).
BipartiteGraph SeededGraph(size_t num_queries, uint64_t seed) {
  GeneratorOptions options;
  options.num_queries = num_queries;
  options.num_ads = num_queries / 3;
  options.taxonomy.num_categories = 8;
  options.taxonomy.subtopics_per_category = 6;
  options.mean_impressions_per_query = 25.0;
  options.seed = seed;
  auto world = GenerateClickGraph(options);
  SRPP_CHECK(world.ok());
  return std::move(world)->graph;
}

void WriteSnapshotFile(const BipartiteGraph& graph, const std::string& path) {
  SimRankOptions options;
  options.variant = SimRankVariant::kWeighted;
  options.iterations = 5;
  options.prune_threshold = 1e-6;
  options.max_partners_per_node = 100;
  options.num_threads = 1;
  auto engine = CreateSimRankEngine("sparse", options);
  SRPP_CHECK(engine.ok());
  SRPP_CHECK((*engine)->Run(graph).ok());
  SimilarityMatrix scores = (*engine)->ExportQueryScores(1e-6);
  SRPP_CHECK(SaveSnapshot(scores, SimRankVariantName(options.variant), path,
                          SnapshotSide::kQueryQuery)
                 .ok());
}

// A two-tenant world on disk, all paths under a pid-suffixed stem (or a
// caller-chosen stem whose files outlive the process, for --make-world).
struct BenchWorld {
  std::string stem;
  BipartiteGraph graph_a;
  BipartiteGraph graph_b;
  std::string manifest_path;
  std::vector<std::string> paths;
  bool keep = false;

  explicit BenchWorld(size_t num_queries, const std::string& fixed_stem = "")
      : stem(fixed_stem.empty()
                 ? StringPrintf("/tmp/bench_perf_loadgen_%d", getpid())
                 : fixed_stem),
        graph_a(SeededGraph(num_queries, 42)),
        graph_b(SeededGraph(num_queries, 43)),
        keep(!fixed_stem.empty()) {
    std::string graph_a_path = stem + "_a_graph.tsv";
    std::string graph_b_path = stem + "_b_graph.tsv";
    std::string snap_a_path = stem + "_a.snap";
    std::string snap_b_path = stem + "_b.snap";
    manifest_path = stem + "_manifest.txt";
    SRPP_CHECK(SaveGraph(graph_a, graph_a_path).ok());
    SRPP_CHECK(SaveGraph(graph_b, graph_b_path).ok());
    WriteSnapshotFile(graph_a, snap_a_path);
    WriteSnapshotFile(graph_b, snap_b_path);
    // "lazy" shares alpha's graph but has no snapshot: its rows are
    // computed on demand by the linearized engine, so the e2e smoke
    // exercises the cold-row serving path too.
    std::string manifest =
        "manifest-version 1\n"
        "tenant alpha\n  graph " + graph_a_path + "\n  snapshot " +
        snap_a_path + "\ntenant beta\n  graph " + graph_b_path +
        "\n  snapshot " + snap_b_path + "\ntenant lazy\n  graph " +
        graph_a_path + "\n  scoring on-demand\n";
    FILE* out = std::fopen(manifest_path.c_str(), "w");
    SRPP_CHECK(out != nullptr);
    std::fputs(manifest.c_str(), out);
    std::fclose(out);
    paths = {graph_a_path, graph_b_path, snap_a_path, snap_b_path,
             manifest_path};
  }

  ~BenchWorld() {
    if (keep) return;
    for (const std::string& path : paths) std::remove(path.c_str());
  }
};

std::vector<std::string> SampleQueries(const BipartiteGraph& graph,
                                       size_t count) {
  std::vector<std::string> queries;
  size_t step = std::max<size_t>(1, graph.num_queries() / count);
  for (size_t q = 0; q < graph.num_queries() && queries.size() < count;
       q += step) {
    queries.push_back(graph.query_label(static_cast<QueryId>(q)));
  }
  return queries;
}

// Value of one exposition sample ("name{labels} value") in a metrics
// document, or -1 when the series is absent.
double SampleValue(const std::string& text, const std::string& series) {
  size_t at = text.find("\n" + series + " ");
  if (at == std::string::npos) return -1.0;
  return std::strtod(text.c_str() + at + series.size() + 2, nullptr);
}

// Cold/warm round-trip against the BenchWorld "lazy" tenant: a query no
// load connection touched must be answered (computed on the spot), the
// repeat must match it, and the daemon's metrics frame must show the row
// cache working. Returns 0 on success.
int VerifyOnDemand(const std::string& host, uint16_t port,
                   const BipartiteGraph& graph_a) {
  loadgen::Client client;
  Status connected = client.Connect(host, port);
  if (!connected.ok()) {
    std::fprintf(stderr, "%s\n", connected.ToString().c_str());
    return 1;
  }
  // SampleQueries(_, 32) over 150 queries walks every 4th label, so
  // label 1 was never sent by the load phase: guaranteed cold.
  const std::string query = graph_a.query_label(1);
  Result<loadgen::Reply> cold = client.TopK("lazy", query, 5, 9001);
  if (!cold.ok() || cold->items.empty()) {
    std::fprintf(stderr, "cold on-demand query failed or came back empty\n");
    return 1;
  }
  Result<loadgen::Reply> warm = client.TopK("lazy", query, 5, 9002);
  if (!warm.ok() || warm->items != cold->items) {
    std::fprintf(stderr, "warm repeat did not match the cold answer\n");
    return 1;
  }
  if (!client.SendMetrics(9003).ok()) return 1;
  Result<loadgen::Reply> metrics = client.ReadReply();
  if (!metrics.ok() || metrics->type != FrameType::kMetricsResponse) {
    return 1;
  }
  // The repeat must have hit the row cache, not recomputed the row.
  for (const char* family :
       {"srpp_rows_computed_total", "srpp_cold_requests_total",
        "srpp_row_cache_hits_total"}) {
    if (SampleValue(metrics->text,
                    StringPrintf("%s{tenant=\"lazy\"}", family)) < 1.0) {
      std::fprintf(stderr, "metrics show no %s for the lazy tenant:\n%s\n",
                   family, metrics->text.c_str());
      return 1;
    }
  }
  std::printf("on-demand tenant verified: cold answered, repeat hit the "
              "row cache\n");
  return 0;
}

// Scrapes srpp_stage_duration_seconds over the binary protocol
// (kMetricsRequest) and returns the per-stage samples. Exits on
// transport failure: every daemon this bench drives serves the frame.
std::map<std::string, loadgen::StageSample> ScrapeStageSamples(
    const std::string& host, uint16_t port) {
  Result<std::string> text = loadgen::FetchMetricsText(host, port);
  if (!text.ok()) {
    std::fprintf(stderr, "metrics scrape failed: %s\n",
                 text.status().ToString().c_str());
    std::exit(1);
  }
  return loadgen::ParseStageSamples(*text);
}

int ConnectMode(const std::string& endpoint, bool smoke) {
  size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "--connect expects HOST:PORT, got %s\n",
                 endpoint.c_str());
    return 2;
  }
  loadgen::LoadOptions options;
  options.host = endpoint.substr(0, colon);
  options.port = static_cast<uint16_t>(
      std::strtoul(endpoint.c_str() + colon + 1, nullptr, 10));
  options.connections = smoke ? 4 : 8;
  options.requests_per_connection = smoke ? 50 : 500;
  options.pipeline = 8;
  // The CI smoke daemon serves the BenchWorld manifest: same tenants,
  // same seeds, so these query texts resolve.
  BipartiteGraph graph_a = SeededGraph(150, 42);
  BipartiteGraph graph_b = SeededGraph(150, 43);
  options.targets = {
      loadgen::LoadTarget{"alpha", SampleQueries(graph_a, 32)},
      loadgen::LoadTarget{"beta", SampleQueries(graph_b, 32)},
  };
  std::map<std::string, loadgen::StageSample> before =
      ScrapeStageSamples(options.host, options.port);
  Result<loadgen::LoadReport> report = loadgen::RunLoad(options);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", report->ToString().c_str());
  if (report->ok != report->sent) {
    std::fprintf(stderr, "expected every request to succeed\n");
    return 1;
  }
  // Server-side attribution for the burst we just sent: where did the
  // round-trip time go once the daemon had the request?
  loadgen::StageBreakdown stages = loadgen::DiffStageSamples(
      before, ScrapeStageSamples(options.host, options.port));
  std::printf("%s", stages.ToString().c_str());
  if (stages.stages.empty()) {
    std::fprintf(stderr, "daemon exposed no stage histograms\n");
    return 1;
  }
  // The load phase stayed on the precomputed tenants; now drive the
  // world's on-demand tenant through its cold and cached paths.
  return VerifyOnDemand(options.host, options.port, graph_a);
}

int Main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);
  bool smoke = bench::HasFlag(argc, argv, "--smoke");
  const char* endpoint = bench::FlagValue(argc, argv, "--connect", "");
  if (endpoint[0] != '\0') return ConnectMode(endpoint, smoke);
  const char* world_stem = bench::FlagValue(argc, argv, "--make-world", "");
  if (world_stem[0] != '\0') {
    // Materialize the two-tenant world for an external daemon (the CI
    // e2e smoke: serve-daemon loads this manifest, --connect drives it
    // with the matching query texts). Files are left on disk.
    BenchWorld world(150, world_stem);
    std::printf("%s\n", world.manifest_path.c_str());
    return 0;
  }
  const size_t repeats = bench::RepeatsFlag(
      argc, argv, smoke ? "2" : "3",
      "bench_perf_loadgen [--smoke] [--repeats N] [--json <path>] "
      "[--connect HOST:PORT] [--make-world STEM]");
  const char* json_path = bench::FlagValue(argc, argv, "--json", "");

  BenchWorld world(smoke ? 150 : 300);
  DaemonOptions daemon_options;
  daemon_options.manifest_path = world.manifest_path;
  daemon_options.enable_watcher = false;  // deterministic: no reload noise
  Result<std::unique_ptr<ServeDaemon>> daemon =
      ServeDaemon::Start(daemon_options);
  if (!daemon.ok()) {
    std::fprintf(stderr, "%s\n", daemon.status().ToString().c_str());
    return 1;
  }

  loadgen::LoadOptions base;
  base.port = (*daemon)->port();
  base.requests_per_connection = smoke ? 100 : 1000;
  base.targets = {
      loadgen::LoadTarget{"alpha", SampleQueries(world.graph_a, 32)},
      loadgen::LoadTarget{"beta", SampleQueries(world.graph_b, 32)},
  };

  struct Shape {
    const char* name;
    size_t connections;
    size_t pipeline;
  };
  const Shape shapes[] = {
      {"topk/c1_p1", 1, 1},   // pure round-trip latency
      {"topk/c4_p8", 4, 8},   // coalescing under concurrency
      {"topk/c8_p16", 8, 16},  // saturation
  };

  bench::PerfTable table(
      StringPrintf("serve-daemon loadgen (%s)", smoke ? "smoke" : "full"),
      repeats);
  std::map<std::string, loadgen::StageSample> stages_before =
      ScrapeStageSamples(base.host, base.port);
  for (const Shape& shape : shapes) {
    loadgen::LoadOptions options = base;
    options.connections = shape.connections;
    options.pipeline = shape.pipeline;
    table.Run(shape.name, [&options] {
      Result<loadgen::LoadReport> report = loadgen::RunLoad(options);
      if (!report.ok()) {
        std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
        std::exit(1);
      }
      if (report->ok != report->sent) {
        std::fprintf(stderr, "loadgen saw non-ok responses: %s\n",
                     report->ToString().c_str());
        std::exit(1);
      }
      return StringPrintf("%.0f qps, p99 %.0fus", report->qps,
                          report->p99_us);
    });
  }
  table.Print();

  // Server-side counterpart of the client percentiles above: per-stage
  // means over everything the shapes sent, scraped via kMetricsRequest.
  loadgen::StageBreakdown stages = loadgen::DiffStageSamples(
      stages_before, ScrapeStageSamples(base.host, base.port));
  std::printf("%s", stages.ToString().c_str());

  MetricsSnapshot metrics = (*daemon)->metrics_registry().Snapshot();
  std::printf("daemon: admitted=%.0f batches=%.0f\n",
              metrics.Sum("srpp_requests_total", {{"code", "ok"}}),
              metrics.Sum("srpp_batches_total"));
  (*daemon)->RequestShutdown();
  int exit_code = (*daemon)->Wait();
  if (exit_code != 0) {
    std::fprintf(stderr, "daemon drain failed: %d\n", exit_code);
    return 1;
  }

  if (json_path[0] != '\0') {
    bench::JsonReport report;
    report.Add(table);
    // Stage means ride along as extra cases ("stage/score", ...). The
    // regression gate reports unknown names as [new] without failing,
    // so they are informational until the baseline is refreshed.
    double total = stages.total_seconds();
    for (const auto& [stage, sample] : stages.stages) {
      bench::PerfCase c;
      c.name = "stage/" + stage;
      c.reps = static_cast<size_t>(sample.count);
      uint64_t mean_ns =
          sample.count > 0
              ? static_cast<uint64_t>(sample.sum_seconds / sample.count * 1e9)
              : 0;
      c.median_ns = mean_ns;
      c.best_ns = mean_ns;
      c.note = StringPrintf(
          "share %.1f%% of server time",
          total > 0.0 ? sample.sum_seconds / total * 100.0 : 0.0);
      report.AddCase(std::move(c));
    }
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
