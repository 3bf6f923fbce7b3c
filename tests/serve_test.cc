// Multi-tenant serving layer tests: manifest parsing, the tenant
// registry's RCU lookup semantics, manifest-driven loading of query-query
// and ad-ad tenants, per-tenant hot reload with atomic fallback on
// corrupt replacement files, the mtime/checksum poll watcher — and the
// acceptance stress: reader threads hammering TopKBatch while Reload
// swaps snapshots in a loop must always observe a fully-loaded
// generation, never a torn mix.
#include "serve/snapshot_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <thread>

#include "core/engine_registry.h"
#include "core/sample_graphs.h"
#include "graph/graph_io.h"
#include "serve/manifest.h"
#include "serve/tenant_registry.h"
#include "synth/click_graph_generator.h"
#include "util/logging.h"

namespace simrankpp {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadAllBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteAllBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

BipartiteGraph SeededGraph(size_t num_queries = 150, uint64_t seed = 42) {
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

SimRankOptions EngineOptions(SimRankVariant variant, size_t iterations) {
  SimRankOptions options;
  options.variant = variant;
  options.iterations = iterations;
  options.prune_threshold = 1e-6;
  options.max_partners_per_node = 100;
  options.num_threads = 1;
  return options;
}

// Computes a snapshot file for `graph` with the given variant/side.
void WriteSnapshotFile(const BipartiteGraph& graph, SimRankVariant variant,
                       size_t iterations, SnapshotSide side,
                       const std::string& path) {
  auto engine = CreateSimRankEngine("sparse", EngineOptions(variant,
                                                            iterations));
  SRPP_CHECK(engine.ok());
  SRPP_CHECK((*engine)->Run(graph).ok());
  SimilarityMatrix scores = side == SnapshotSide::kAdAd
                                ? (*engine)->ExportAdScores(1e-6)
                                : (*engine)->ExportQueryScores(1e-6);
  SRPP_CHECK(SaveSnapshot(scores, SimRankVariantName(variant), path, side)
                 .ok());
}

// A minimal valid two-file world (graph TSV + query-query snapshot) with
// every path prefixed by `stem` so parallel ctest cases never collide.
struct ServingWorld {
  std::string stem;
  BipartiteGraph graph;
  std::string graph_path;
  std::string snapshot_path;
  std::string manifest_path;

  explicit ServingWorld(const std::string& name, uint64_t seed = 42)
      : stem(TempPath(name)), graph(SeededGraph(150, seed)) {
    graph_path = stem + "_graph.tsv";
    snapshot_path = stem + "_scores.snap";
    manifest_path = stem + "_manifest.txt";
    SRPP_CHECK(SaveGraph(graph, graph_path).ok());
    WriteSnapshotFile(graph, SimRankVariant::kWeighted, 5,
                      SnapshotSide::kQueryQuery, snapshot_path);
  }

  ~ServingWorld() {
    std::remove(graph_path.c_str());
    std::remove(snapshot_path.c_str());
    std::remove(manifest_path.c_str());
  }

  void WriteManifest(const std::string& body) {
    WriteAllBytes(manifest_path, "manifest-version 1\n" + body);
  }

  std::string DefaultManifestBody(const std::string& tenant) const {
    return "tenant " + tenant + "\n  graph " + graph_path +
           "\n  snapshot " + snapshot_path + "\n";
  }
};

std::vector<QueryId> AllQueries(const BipartiteGraph& graph) {
  std::vector<QueryId> ids(graph.num_queries());
  std::iota(ids.begin(), ids.end(), 0u);
  return ids;
}

// ------------------------------------------------------- manifest parsing

TEST(ManifestTest, ParsesFullConfiguration) {
  const std::string text =
      "# comment\n"
      "manifest-version 1\n"
      "\n"
      "tenant us-web\n"
      "  graph graphs/us.tsv\n"
      "  snapshot snaps/us.snap\n"
      "  bids bids/us.txt\n"
      "  side query-query\n"
      "  checksum 00ff00ff00ff00ff\n"
      "  max-rewrites 8\n"
      "  max-candidates 64\n"
      "  min-score 0.001\n"
      "  dedup off\n"
      "tenant us-ads\n"
      "  graph graphs/us.tsv\n"
      "  snapshot snaps/us_ads.snap\n"
      "  side ad-ad\n"
      "  bid-filter off\n";
  Result<ServingManifest> manifest = ParseManifest(text, "/base");
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  ASSERT_EQ(manifest->entries.size(), 2u);

  const ManifestEntry& web = manifest->entries[0];
  EXPECT_EQ(web.tenant, "us-web");
  EXPECT_EQ(web.graph_path, "/base/graphs/us.tsv");
  EXPECT_EQ(web.snapshot_path, "/base/snaps/us.snap");
  EXPECT_EQ(web.bid_path, "/base/bids/us.txt");
  EXPECT_EQ(web.expected_side, SnapshotSide::kQueryQuery);
  EXPECT_EQ(web.expected_checksum, 0x00ff00ff00ff00ffull);
  EXPECT_EQ(web.pipeline.max_rewrites, 8u);
  EXPECT_EQ(web.pipeline.max_candidates, 64u);
  EXPECT_EQ(web.pipeline.min_score, 0.001);
  EXPECT_FALSE(web.pipeline.apply_dedup);
  // Bid file present and no explicit bid-filter key: filter defaults on.
  EXPECT_TRUE(web.pipeline.apply_bid_filter);

  const ManifestEntry& ads = manifest->entries[1];
  EXPECT_EQ(ads.expected_side, SnapshotSide::kAdAd);
  EXPECT_FALSE(ads.expected_checksum.has_value());
  EXPECT_FALSE(ads.pipeline.apply_bid_filter);
  EXPECT_EQ(manifest->Find("us-ads"), &ads);
  EXPECT_EQ(manifest->Find("nobody"), nullptr);
}

TEST(ManifestTest, BidFilterDefaultsToOffWithoutBidFile) {
  Result<ServingManifest> manifest = ParseManifest(
      "manifest-version 1\ntenant t\n graph g\n snapshot s\n", "");
  ASSERT_TRUE(manifest.ok());
  EXPECT_FALSE(manifest->entries[0].pipeline.apply_bid_filter);
  EXPECT_TRUE(manifest->entries[0].bid_path.empty());
}

TEST(ManifestTest, AbsolutePathsAreNotRebased) {
  Result<ServingManifest> manifest = ParseManifest(
      "manifest-version 1\ntenant t\n graph /abs/g.tsv\n snapshot s.snap\n",
      "/base");
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest->entries[0].graph_path, "/abs/g.tsv");
  EXPECT_EQ(manifest->entries[0].snapshot_path, "/base/s.snap");
}

TEST(ManifestTest, RejectsMalformedInput) {
  const struct {
    const char* name;
    const char* text;
    const char* message_fragment;
  } kCases[] = {
      {"empty", "", "manifest is empty"},
      {"missing version", "tenant t\n", "manifest-version"},
      {"unsupported version", "manifest-version 9\n", "version"},
      {"key before tenant", "manifest-version 1\ngraph g\n",
       "before any \"tenant\""},
      {"unknown key", "manifest-version 1\ntenant t\n graph g\n snapshot "
                      "s\n colour blue\n",
       "unknown key"},
      {"duplicate tenant",
       "manifest-version 1\ntenant t\n graph g\n snapshot s\ntenant t\n "
       "graph g\n snapshot s\n",
       "duplicate tenant"},
      {"missing graph", "manifest-version 1\ntenant t\n snapshot s\n",
       "\"graph\""},
      {"missing snapshot", "manifest-version 1\ntenant t\n graph g\n",
       "\"snapshot\""},
      {"bad side", "manifest-version 1\ntenant t\n graph g\n snapshot s\n "
                   "side sideways\n",
       "\"side\""},
      {"bad checksum", "manifest-version 1\ntenant t\n graph g\n snapshot "
                       "s\n checksum xyz\n",
       "checksum"},
      {"bad max-rewrites", "manifest-version 1\ntenant t\n graph g\n "
                           "snapshot s\n max-rewrites zero\n",
       "max-rewrites"},
      {"negative max-rewrites", "manifest-version 1\ntenant t\n graph g\n "
                                "snapshot s\n max-rewrites -1\n",
       "max-rewrites"},
      {"overflowing max-rewrites",
       "manifest-version 1\ntenant t\n graph g\n snapshot s\n "
       "max-rewrites 99999999999999999999999\n",
       "max-rewrites"},
      {"signed checksum", "manifest-version 1\ntenant t\n graph g\n "
                          "snapshot s\n checksum -42\n",
       "checksum"},
      {"zero max-rewrites", "manifest-version 1\ntenant t\n graph g\n "
                            "snapshot s\n max-rewrites 0\n",
       "max-rewrites"},
      {"bad min-score", "manifest-version 1\ntenant t\n graph g\n snapshot "
                        "s\n min-score tiny\n",
       "min-score"},
      {"bad dedup", "manifest-version 1\ntenant t\n graph g\n snapshot s\n "
                    "dedup yes\n",
       "dedup"},
      {"tenant without name", "manifest-version 1\ntenant\n", "tenant"},
  };
  for (const auto& test_case : kCases) {
    Result<ServingManifest> manifest = ParseManifest(test_case.text, "");
    ASSERT_FALSE(manifest.ok()) << test_case.name;
    EXPECT_EQ(manifest.status().code(), StatusCode::kInvalidArgument)
        << test_case.name;
    EXPECT_NE(manifest.status().message().find(test_case.message_fragment),
              std::string::npos)
        << test_case.name << ": " << manifest.status().message();
  }
}

TEST(ManifestTest, CanonicalFormRoundTrips) {
  ServingManifest manifest;
  ManifestEntry entry;
  entry.tenant = "round-trip";
  entry.graph_path = "g.tsv";
  entry.snapshot_path = "s.snap";
  entry.bid_path = "b.txt";
  entry.expected_side = SnapshotSide::kAdAd;
  entry.expected_checksum = 0xdeadbeefull;
  entry.pipeline.max_rewrites = 7;
  // A value %g would truncate: the canonical form must round-trip every
  // double exactly.
  entry.pipeline.min_score = 0.12345678912345678;
  entry.pipeline.apply_dedup = false;
  entry.pipeline.apply_bid_filter = false;  // differs from bids-present default
  manifest.entries.push_back(entry);

  Result<ServingManifest> reparsed =
      ParseManifest(ManifestToString(manifest), "");
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  ASSERT_EQ(reparsed->entries.size(), 1u);
  EXPECT_EQ(reparsed->entries[0], entry);

  std::string path = TempPath("manifest_round_trip.txt");
  ASSERT_TRUE(WriteManifest(manifest, path).ok());
  Result<ServingManifest> loaded = LoadManifest(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->entries[0].tenant, "round-trip");
  std::remove(path.c_str());
}

TEST(ManifestTest, OnDemandScoringKeysParse) {
  const std::string text =
      "manifest-version 1\n"
      "tenant lazy\n"
      "  graph g.tsv\n"
      "  scoring on-demand\n"
      "tenant lazy-warm\n"
      "  graph g.tsv\n"
      "  scoring on-demand\n"
      "  engine sparse\n"
      "  snapshot warm.snap\n"
      "tenant eager\n"
      "  graph g.tsv\n"
      "  snapshot s.snap\n"
      "  scoring precomputed\n";
  Result<ServingManifest> manifest = ParseManifest(text, "/base");
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  ASSERT_EQ(manifest->entries.size(), 3u);

  // No snapshot needed: every row comes from the engine.
  const ManifestEntry& lazy = manifest->entries[0];
  EXPECT_TRUE(lazy.on_demand);
  EXPECT_EQ(lazy.engine, "linearized");  // the default
  EXPECT_TRUE(lazy.snapshot_path.empty());

  // A snapshot may still warm-start an on-demand tenant, and the engine
  // name is an open registry string at parse time.
  const ManifestEntry& warm = manifest->entries[1];
  EXPECT_TRUE(warm.on_demand);
  EXPECT_EQ(warm.engine, "sparse");
  EXPECT_EQ(warm.snapshot_path, "/base/warm.snap");

  const ManifestEntry& eager = manifest->entries[2];
  EXPECT_FALSE(eager.on_demand);
  EXPECT_TRUE(eager.engine.empty());
}

TEST(ManifestTest, OnDemandKeyErrorsAreRejected) {
  const struct {
    const char* name;
    const char* text;
    const char* message_fragment;
  } kCases[] = {
      {"engine with precomputed scoring",
       "manifest-version 1\ntenant t\n graph g\n snapshot s\n "
       "engine linearized\n",
       "scoring is precomputed"},
      {"checksum without snapshot",
       "manifest-version 1\ntenant t\n graph g\n scoring on-demand\n "
       "checksum 00ff\n",
       "checksum"},
      {"bad scoring value",
       "manifest-version 1\ntenant t\n graph g\n snapshot s\n "
       "scoring sometimes\n",
       "scoring"},
      {"missing snapshot names the escape hatch",
       "manifest-version 1\ntenant t\n graph g\n",
       "scoring on-demand"},
  };
  for (const auto& test_case : kCases) {
    Result<ServingManifest> manifest = ParseManifest(test_case.text, "");
    ASSERT_FALSE(manifest.ok()) << test_case.name;
    EXPECT_EQ(manifest.status().code(), StatusCode::kInvalidArgument)
        << test_case.name;
    EXPECT_NE(manifest.status().message().find(test_case.message_fragment),
              std::string::npos)
        << test_case.name << ": " << manifest.status().message();
  }
}

TEST(ManifestTest, OnDemandCanonicalFormRoundTrips) {
  ServingManifest manifest;
  ManifestEntry entry;
  entry.tenant = "lazy";
  entry.graph_path = "g.tsv";
  entry.on_demand = true;
  entry.engine = "linearized";
  manifest.entries.push_back(entry);
  ManifestEntry warm;
  warm.tenant = "lazy-warm";
  warm.graph_path = "g.tsv";
  warm.snapshot_path = "warm.snap";
  warm.on_demand = true;
  warm.engine = "sparse";
  manifest.entries.push_back(warm);

  std::string canonical = ManifestToString(manifest);
  // The default engine is implied, never emitted; the snapshot line is
  // omitted entirely when there is nothing to load.
  EXPECT_EQ(canonical.find("engine linearized"), std::string::npos);
  EXPECT_NE(canonical.find("scoring on-demand"), std::string::npos);
  EXPECT_NE(canonical.find("engine sparse"), std::string::npos);

  Result<ServingManifest> reparsed = ParseManifest(canonical, "");
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  ASSERT_EQ(reparsed->entries.size(), 2u);
  EXPECT_EQ(reparsed->entries[0], entry);
  EXPECT_EQ(reparsed->entries[1], warm);
}

TEST(ManifestTest, MissingFileIsIOError) {
  Result<ServingManifest> manifest =
      LoadManifest(TempPath("no_such_manifest.txt"));
  ASSERT_FALSE(manifest.ok());
  EXPECT_EQ(manifest.status().code(), StatusCode::kIOError);
}

// ------------------------------------------------------- tenant registry

// A tiny tenant whose service adopts an empty caller matrix — enough for
// registry-semantics tests without engine runs or files.
std::shared_ptr<const Tenant> MakeStubTenant(const std::string& name,
                                             uint64_t generation) {
  auto assets = std::make_shared<TenantAssets>();
  assets->graph = MakeFigure3Graph();
  RewritePipelineOptions pipeline;
  pipeline.apply_bid_filter = false;
  auto service =
      RewriteServiceBuilder()
          .WithGraph(&assets->graph)
          .WithSimilarities(SimilarityMatrix(assets->graph.num_queries()),
                            "stub")
          .WithPipelineOptions(pipeline)
          .Build();
  SRPP_CHECK(service.ok());
  auto tenant = std::make_shared<Tenant>();
  tenant->name = name;
  tenant->generation = generation;
  tenant->assets = std::move(assets);
  tenant->service = std::move(*service);
  return tenant;
}

TEST(TenantRegistryTest, LookupUnknownTenantReturnsNull) {
  TenantRegistry registry;
  EXPECT_EQ(registry.Lookup("nobody"), nullptr);
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_TRUE(registry.Stats().empty());
}

TEST(TenantRegistryTest, UpsertPublishesAndRemoveUnpublishes) {
  TenantRegistry registry;
  registry.Upsert(MakeStubTenant("a", 1));
  registry.Upsert(MakeStubTenant("b", 1));
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.TenantNames(), (std::vector<std::string>{"a", "b"}));

  std::shared_ptr<const Tenant> held = registry.Lookup("a");
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(held->generation, 1u);

  registry.Upsert(MakeStubTenant("a", 2));
  // The held generation stays valid and unchanged; new lookups see gen 2.
  EXPECT_EQ(held->generation, 1u);
  EXPECT_EQ(registry.Lookup("a")->generation, 2u);

  EXPECT_TRUE(registry.Remove("a"));
  EXPECT_FALSE(registry.Remove("a"));
  EXPECT_EQ(registry.Lookup("a"), nullptr);
  // The survivor is untouched.
  EXPECT_NE(registry.Lookup("b"), nullptr);
}

TEST(TenantRegistryTest, RemoveReleasesTheFinalGeneration) {
  TenantRegistry registry;
  registry.Upsert(MakeStubTenant("t", 1));
  std::weak_ptr<const Tenant> weak = registry.Lookup("t");
  EXPECT_FALSE(weak.expired());
  // With no outstanding reader pins, Remove must release the whole
  // generation (the published pointer's fold-deleter captures the slot —
  // a regression here leaks the graph + scores + service per removal).
  EXPECT_TRUE(registry.Remove("t"));
  EXPECT_TRUE(weak.expired());

  // A pinned generation survives Remove until the reader lets go.
  registry.Upsert(MakeStubTenant("u", 1));
  std::shared_ptr<const Tenant> pinned = registry.Lookup("u");
  std::weak_ptr<const Tenant> weak_u = pinned;
  EXPECT_TRUE(registry.Remove("u"));
  EXPECT_FALSE(weak_u.expired());
  pinned.reset();
  EXPECT_TRUE(weak_u.expired());
}

TEST(TenantRegistryTest, DestructionReleasesEveryPublishedGeneration) {
  std::weak_ptr<const Tenant> weak;
  {
    TenantRegistry registry;
    registry.Upsert(MakeStubTenant("t", 1));
    weak = registry.Lookup("t");
    EXPECT_FALSE(weak.expired());
  }
  // An embedder tearing down the registry must not leak tenants through
  // the fold-deleter slot cycle.
  EXPECT_TRUE(weak.expired());
}

TEST(TenantRegistryTest, ServedCountsAccumulateAcrossGenerations) {
  TenantRegistry registry;
  registry.Upsert(MakeStubTenant("t", 1));
  registry.Lookup("t")->service->TopK(QueryId{0}, 3);
  registry.Lookup("t")->service->TopK(QueryId{1}, 3);
  registry.Upsert(MakeStubTenant("t", 2));
  registry.Lookup("t")->service->TopK(QueryId{0}, 3);

  std::vector<TenantServeStats> stats = registry.Stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].generation, 2u);
  ASSERT_TRUE(stats[0].service.has_value());
  EXPECT_EQ(stats[0].service->queries_served, 3u);
}

TEST(TenantRegistryTest, ReloadFailureIsVisibleWithoutUnpublishing) {
  TenantRegistry registry;
  registry.Upsert(MakeStubTenant("t", 1));
  registry.RecordReloadFailure(
      "t", Status::InvalidArgument("checksum mismatch"));

  std::vector<TenantServeStats> stats = registry.Stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_TRUE(stats[0].service.has_value());
  EXPECT_EQ(stats[0].generation, 1u);
  EXPECT_FALSE(stats[0].last_reload_ok);
  EXPECT_NE(stats[0].last_reload_message.find("checksum"),
            std::string::npos);
  EXPECT_NE(registry.Lookup("t"), nullptr);

  // A failure for a never-loaded tenant creates a visible non-serving row.
  registry.RecordReloadFailure("ghost", Status::IOError("no file"));
  stats = registry.Stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].tenant, "ghost");
  EXPECT_FALSE(stats[0].service.has_value());
  EXPECT_NE(stats[0].ToString().find("serving=no"), std::string::npos);
}

TEST(TenantRegistryTest, StatsLinePrefixesTheServiceStatsLine) {
  TenantRegistry registry;
  registry.Upsert(MakeStubTenant("t", 3));
  registry.Lookup("t")->service->TopK(QueryId{0}, 3);

  std::vector<TenantServeStats> stats = registry.Stats();
  ASSERT_EQ(stats.size(), 1u);
  ASSERT_TRUE(stats[0].service.has_value());
  EXPECT_EQ(stats[0].ToString(),
            "tenant=t gen=3 reload=ok " + stats[0].service->ToString());

  registry.RecordReloadFailure("t", Status::IOError("no file"));
  stats = registry.Stats();
  ASSERT_EQ(stats.size(), 1u);
  ASSERT_TRUE(stats[0].service.has_value());
  EXPECT_EQ(stats[0].ToString(),
            "tenant=t gen=3 reload=FAILED last_error=\"" +
                stats[0].last_reload_message + "\" " +
                stats[0].service->ToString());
}

// ------------------------------------------------- store: load and serve

TEST(SnapshotStoreTest, LoadAllServesQueryAndAdTenants) {
  ServingWorld world("store_both_sides");
  std::string ad_snap = world.stem + "_ads.snap";
  WriteSnapshotFile(world.graph, SimRankVariant::kSimRank, 4,
                    SnapshotSide::kAdAd, ad_snap);
  world.WriteManifest(world.DefaultManifestBody("web") + "tenant ads\n  graph " +
                      world.graph_path + "\n  snapshot " + ad_snap +
                      "\n  side ad-ad\n");

  TenantRegistry registry;
  SnapshotStore store(world.manifest_path, &registry);
  ASSERT_TRUE(store.LoadAll().ok());
  ASSERT_EQ(registry.size(), 2u);

  std::shared_ptr<const Tenant> web = registry.Lookup("web");
  ASSERT_NE(web, nullptr);
  EXPECT_EQ(web->service->side(), SnapshotSide::kQueryQuery);
  EXPECT_EQ(web->generation, 1u);

  // The query tenant serves exactly what a directly-built service serves.
  RewritePipelineOptions pipeline;
  pipeline.apply_bid_filter = false;
  auto reference = RewriteServiceBuilder()
                       .WithGraph(&world.graph)
                       .WithSnapshot(world.snapshot_path)
                       .WithPipelineOptions(pipeline)
                       .Build();
  ASSERT_TRUE(reference.ok());
  for (QueryId q = 0; q < world.graph.num_queries(); q += 7) {
    EXPECT_EQ(web->service->TopK(q, 5), (*reference)->TopK(q, 5))
        << "query " << q;
  }

  // The ad tenant serves ad labels, looked up on the ad side.
  std::shared_ptr<const Tenant> ads = registry.Lookup("ads");
  ASSERT_NE(ads, nullptr);
  EXPECT_EQ(ads->service->side(), SnapshotSide::kAdAd);
  EXPECT_EQ(ads->service->Stats().num_queries, world.graph.num_ads());
  bool found_candidates = false;
  for (AdId a = 0; a < world.graph.num_ads() && !found_candidates; ++a) {
    for (const RewriteCandidate& c : ads->service->TopK(a, 5)) {
      found_candidates = true;
      EXPECT_TRUE(world.graph.FindAd(c.text).has_value())
          << c.text << " is not an ad label";
    }
  }
  EXPECT_TRUE(found_candidates);
  // Both tenants share one graph file but keep independent assets; the
  // ad tenant's text lookup resolves ad labels, not query labels.
  auto by_text = ads->service->TopK(world.graph.ad_label(0), 5);
  EXPECT_TRUE(by_text.ok());
}

TEST(SnapshotStoreTest, OnDemandTenantServesWithoutASnapshot) {
  ServingWorld world("store_on_demand");
  world.WriteManifest("tenant lazy\n  graph " + world.graph_path +
                      "\n  scoring on-demand\n");

  TenantRegistry registry;
  SnapshotStore store(world.manifest_path, &registry);
  ASSERT_TRUE(store.LoadAll().ok());
  std::shared_ptr<const Tenant> lazy = registry.Lookup("lazy");
  ASSERT_NE(lazy, nullptr);
  EXPECT_TRUE(lazy->service->on_demand());
  EXPECT_EQ(lazy->service->Stats().source, "on-demand");
  EXPECT_EQ(lazy->service->Stats().engine_name, "linearized");

  // Every query row is cold; lookups still answer, by computing.
  auto first = lazy->service->TopK(world.graph.query_label(0), 5);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto again = lazy->service->TopK(world.graph.query_label(0), 5);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*first, *again);

  std::vector<TenantServeStats> stats = registry.Stats();
  ASSERT_EQ(stats.size(), 1u);
  ASSERT_TRUE(stats[0].service.has_value());
  EXPECT_TRUE(stats[0].service->on_demand);
  EXPECT_EQ(stats[0].service->rows_computed, 1u);
  EXPECT_EQ(stats[0].service->row_cache_misses, 1u);
  EXPECT_EQ(stats[0].service->row_cache_hits, 1u);
  EXPECT_NE(stats[0].ToString().find("on_demand=1"), std::string::npos)
      << stats[0].ToString();
}

TEST(SnapshotStoreTest, LoadAllReportsPerTenantFailuresAndServesTheRest) {
  ServingWorld world("store_partial_failure");
  world.WriteManifest(world.DefaultManifestBody("good") +
                      "tenant bad\n  graph " + world.graph_path +
                      "\n  snapshot " + world.stem + "_missing.snap\n");

  TenantRegistry registry;
  SnapshotStore store(world.manifest_path, &registry);
  Status status = store.LoadAll();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("1 of 2"), std::string::npos);

  EXPECT_NE(registry.Lookup("good"), nullptr);
  EXPECT_EQ(registry.Lookup("bad"), nullptr);
  std::vector<TenantServeStats> stats = registry.Stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].tenant, "bad");
  EXPECT_FALSE(stats[0].service.has_value());
  EXPECT_FALSE(stats[0].last_reload_ok);
}

TEST(SnapshotStoreTest, SideAndChecksumPinsAreEnforced) {
  ServingWorld world("store_pins");
  // Wrong side expectation: the file is query-query.
  world.WriteManifest(world.DefaultManifestBody("t") + "  side ad-ad\n");
  TenantRegistry registry;
  SnapshotStore store(world.manifest_path, &registry);
  Status status = store.LoadAll();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("query-query"), std::string::npos);

  // Wrong checksum pin.
  world.WriteManifest(world.DefaultManifestBody("t") +
                      "  checksum 0123456789abcdef\n");
  status = store.LoadAll();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("pins"), std::string::npos);

  // Correct checksum pin loads.
  Result<SnapshotInfo> info = ReadSnapshotInfo(world.snapshot_path);
  ASSERT_TRUE(info.ok());
  char pinned[32];
  std::snprintf(pinned, sizeof(pinned), "%016llx",
                static_cast<unsigned long long>(info->checksum));
  world.WriteManifest(world.DefaultManifestBody("t") + "  checksum " +
                      pinned + "\n");
  EXPECT_TRUE(store.LoadAll().ok());
  EXPECT_EQ(registry.Lookup("t")->service->Stats().snapshot_checksum,
            info->checksum);
}

// ------------------------------------------------------------ hot reload

TEST(SnapshotStoreTest, ReloadSwapsOnlyTheNamedTenant) {
  ServingWorld world("store_reload_isolated");
  std::string other_snap = world.stem + "_other.snap";
  WriteSnapshotFile(world.graph, SimRankVariant::kWeighted, 5,
                    SnapshotSide::kQueryQuery, other_snap);
  world.WriteManifest(world.DefaultManifestBody("a") +
                      "tenant b\n  graph " + world.graph_path +
                      "\n  snapshot " + other_snap + "\n");

  TenantRegistry registry;
  SnapshotStore store(world.manifest_path, &registry);
  ASSERT_TRUE(store.LoadAll().ok());
  std::shared_ptr<const Tenant> a_before = registry.Lookup("a");
  std::shared_ptr<const Tenant> b_before = registry.Lookup("b");

  // Swap tenant b's snapshot content with a different method's scores.
  WriteSnapshotFile(world.graph, SimRankVariant::kSimRank, 3,
                    SnapshotSide::kQueryQuery, other_snap);
  ASSERT_TRUE(store.Reload("b").ok());

  // a is literally the same published object; b moved a generation and
  // reused its parsed graph (snapshot-only reloads don't re-parse TSV).
  EXPECT_EQ(registry.Lookup("a").get(), a_before.get());
  std::shared_ptr<const Tenant> b_after = registry.Lookup("b");
  ASSERT_NE(b_after, nullptr);
  EXPECT_NE(b_after.get(), b_before.get());
  EXPECT_EQ(b_after->generation, 2u);
  EXPECT_EQ(b_after->assets.get(), b_before->assets.get());
  EXPECT_EQ(b_after->service->Stats().method_name, "Simrank");

  EXPECT_EQ(store.Reload("nobody").code(), StatusCode::kNotFound);
}

// Regenerating the graph TSV *in place* (same path) must not leave a
// tenant serving from the stale parsed graph: the store fingerprints the
// graph/bid files and re-parses when they change, and the poll watcher
// treats them as inputs too.
TEST(SnapshotStoreTest, InPlaceGraphUpdateIsReParsed) {
  ServingWorld world("store_graph_update");
  world.WriteManifest(world.DefaultManifestBody("t"));

  TenantRegistry registry;
  SnapshotStore store(world.manifest_path, &registry);
  ASSERT_TRUE(store.LoadAll().ok());
  std::shared_ptr<const Tenant> before = registry.Lookup("t");
  size_t old_queries = before->assets->graph.num_queries();

  // New world at the same paths: different seed, different node count,
  // matching snapshot.
  BipartiteGraph next = SeededGraph(220, 91);
  ASSERT_NE(next.num_queries(), old_queries);
  ASSERT_TRUE(SaveGraph(next, world.graph_path).ok());
  WriteSnapshotFile(next, SimRankVariant::kWeighted, 5,
                    SnapshotSide::kQueryQuery, world.snapshot_path);

  Result<std::vector<std::string>> reloaded = store.PollForChanges();
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(*reloaded, std::vector<std::string>{"t"});
  std::shared_ptr<const Tenant> after = registry.Lookup("t");
  EXPECT_NE(after->assets.get(), before->assets.get());
  EXPECT_EQ(after->assets->graph.num_queries(), next.num_queries());
  EXPECT_EQ(after->generation, 2u);
}

// A failed reload attempt must not poison the asset fingerprints: if the
// graph changed on disk while a corrupt snapshot made the rebuild fail,
// the eventual successful reload still has to re-parse the graph rather
// than reuse the serving generation's stale assets.
TEST(SnapshotStoreTest, FailedReloadDoesNotPoisonAssetFingerprints) {
  ServingWorld world("store_failure_prints");
  world.WriteManifest(world.DefaultManifestBody("t"));

  TenantRegistry registry;
  SnapshotStore store(world.manifest_path, &registry);
  ASSERT_TRUE(store.LoadAll().ok());
  size_t old_queries = registry.Lookup("t")->assets->graph.num_queries();

  // Graph moves to v2 while the snapshot drop is corrupt: reload fails,
  // generation 1 (built on v1) keeps serving.
  BipartiteGraph next = SeededGraph(220, 91);
  ASSERT_NE(next.num_queries(), old_queries);
  ASSERT_TRUE(SaveGraph(next, world.graph_path).ok());
  WriteAllBytes(world.snapshot_path, "corrupt");
  ASSERT_TRUE(store.PollForChanges().ok());
  ASSERT_EQ(registry.Lookup("t")->generation, 1u);

  // A good snapshot computed on v2 lands: the rebuild must parse the v2
  // graph, not adopt the v1 assets recorded before the failure.
  WriteSnapshotFile(next, SimRankVariant::kWeighted, 5,
                    SnapshotSide::kQueryQuery, world.snapshot_path);
  Result<std::vector<std::string>> reloaded = store.PollForChanges();
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(*reloaded, std::vector<std::string>{"t"});
  EXPECT_EQ(registry.Lookup("t")->assets->graph.num_queries(),
            next.num_queries());
  EXPECT_TRUE(registry.Stats()[0].last_reload_ok);
}

TEST(SnapshotStoreTest, CorruptReplacementKeepsOldGenerationServing) {
  ServingWorld world("store_corrupt_fallback");
  world.WriteManifest(world.DefaultManifestBody("t"));

  TenantRegistry registry;
  SnapshotStore store(world.manifest_path, &registry);
  ASSERT_TRUE(store.LoadAll().ok());
  std::shared_ptr<const Tenant> before = registry.Lookup("t");
  std::vector<QueryId> queries = AllQueries(world.graph);
  auto expected = before->service->TopKBatch(queries, 5);

  // Truncate the snapshot mid-payload: a partial write. Reload must fail
  // without unpublishing anything.
  std::string intact = ReadAllBytes(world.snapshot_path);
  WriteAllBytes(world.snapshot_path, intact.substr(0, intact.size() / 2));
  Status status = store.Reload("t");
  ASSERT_FALSE(status.ok());

  std::shared_ptr<const Tenant> after = registry.Lookup("t");
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after.get(), before.get());
  EXPECT_EQ(after->generation, 1u);
  EXPECT_EQ(after->service->TopKBatch(queries, 5), expected);

  // The failure is surfaced in ServeStats while serving continues.
  std::vector<TenantServeStats> stats = registry.Stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_TRUE(stats[0].service.has_value());
  EXPECT_FALSE(stats[0].last_reload_ok);
  EXPECT_FALSE(stats[0].last_reload_message.empty());

  // Restoring a good file recovers on the next reload and clears the
  // failure flag.
  WriteAllBytes(world.snapshot_path, intact);
  ASSERT_TRUE(store.Reload("t").ok());
  EXPECT_EQ(registry.Lookup("t")->generation, 2u);
  EXPECT_TRUE(registry.Stats()[0].last_reload_ok);
}

// ----------------------------------------------------------- poll watcher

TEST(SnapshotStoreTest, PollReloadsExactlyWhatChanged) {
  ServingWorld world("store_poll");
  std::string other_snap = world.stem + "_other.snap";
  WriteSnapshotFile(world.graph, SimRankVariant::kWeighted, 5,
                    SnapshotSide::kQueryQuery, other_snap);
  world.WriteManifest(world.DefaultManifestBody("a") +
                      "tenant b\n  graph " + world.graph_path +
                      "\n  snapshot " + other_snap + "\n");

  TenantRegistry registry;
  SnapshotStore store(world.manifest_path, &registry);
  ASSERT_TRUE(store.LoadAll().ok());

  // Nothing changed: the poll is a no-op.
  Result<std::vector<std::string>> reloaded = store.PollForChanges();
  ASSERT_TRUE(reloaded.ok());
  EXPECT_TRUE(reloaded->empty());
  EXPECT_EQ(registry.Lookup("a")->generation, 1u);

  // Dropping a new snapshot file for b hot-swaps b only.
  WriteSnapshotFile(world.graph, SimRankVariant::kSimRank, 3,
                    SnapshotSide::kQueryQuery, other_snap);
  reloaded = store.PollForChanges();
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(*reloaded, std::vector<std::string>{"b"});
  EXPECT_EQ(registry.Lookup("a")->generation, 1u);
  EXPECT_EQ(registry.Lookup("b")->generation, 2u);

  // A corrupt drop is detected, rejected, and recorded; the old
  // generation keeps serving.
  WriteAllBytes(other_snap, "not a snapshot");
  reloaded = store.PollForChanges();
  ASSERT_TRUE(reloaded.ok());
  EXPECT_TRUE(reloaded->empty());
  EXPECT_EQ(registry.Lookup("b")->generation, 2u);
  EXPECT_FALSE(registry.Stats()[1].last_reload_ok);

  std::remove(other_snap.c_str());
}

TEST(SnapshotStoreTest, PollFollowsManifestEdits) {
  ServingWorld world("store_poll_manifest");
  world.WriteManifest(world.DefaultManifestBody("a"));

  TenantRegistry registry;
  SnapshotStore store(world.manifest_path, &registry);
  ASSERT_TRUE(store.LoadAll().ok());
  EXPECT_EQ(registry.size(), 1u);

  // Adding a tenant to the manifest brings it up on the next poll.
  world.WriteManifest(world.DefaultManifestBody("a") +
                      world.DefaultManifestBody("c"));
  Result<std::vector<std::string>> reloaded = store.PollForChanges();
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(*reloaded, std::vector<std::string>{"c"});
  EXPECT_EQ(registry.size(), 2u);
  // a's entry is unchanged, so a was not reloaded.
  EXPECT_EQ(registry.Lookup("a")->generation, 1u);

  // Editing a's pipeline config rebuilds a; removing c retires it.
  world.WriteManifest(world.DefaultManifestBody("a") + "  max-rewrites 2\n");
  reloaded = store.PollForChanges();
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(*reloaded, std::vector<std::string>{"a"});
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.Lookup("c"), nullptr);
  std::shared_ptr<const Tenant> a = registry.Lookup("a");
  EXPECT_EQ(a->generation, 2u);
  EXPECT_LE(a->service->rewriter().pipeline_options().max_rewrites, 2u);

  // An unparsable manifest fails the poll and leaves serving untouched.
  WriteAllBytes(world.manifest_path, "manifest-version 1\nbogus line\n");
  reloaded = store.PollForChanges();
  ASSERT_FALSE(reloaded.ok());
  EXPECT_NE(registry.Lookup("a"), nullptr);
}

// ----------------------------------------- the acceptance concurrency test

// Readers hammer TopKBatch across two tenants while a writer swaps one
// tenant's snapshot between two known score sets in a tight Reload loop.
// Every observed batch must equal one of the two full-generation
// references — a mixed result would mean a reader saw a half-loaded
// generation. The untouched tenant must never change at all.
TEST(ServeConcurrencyStressTest, HotReloadIsAtomicUnderBatchLoad) {
  ServingWorld world("store_hammer", 21);
  std::string swap_snap = world.stem + "_swap.snap";
  WriteSnapshotFile(world.graph, SimRankVariant::kWeighted, 5,
                    SnapshotSide::kQueryQuery, swap_snap);
  std::string bytes_a = ReadAllBytes(swap_snap);
  WriteSnapshotFile(world.graph, SimRankVariant::kSimRank, 3,
                    SnapshotSide::kQueryQuery, swap_snap);
  std::string bytes_b = ReadAllBytes(swap_snap);
  ASSERT_NE(bytes_a, bytes_b);

  world.WriteManifest(world.DefaultManifestBody("steady") +
                      "tenant swapping\n  graph " + world.graph_path +
                      "\n  snapshot " + swap_snap + "\n");
  TenantRegistry registry;
  SnapshotStore store(world.manifest_path, &registry);
  WriteAllBytes(swap_snap, bytes_a);
  ASSERT_TRUE(store.LoadAll().ok());

  std::vector<QueryId> queries = AllQueries(world.graph);
  constexpr size_t kTopK = 5;
  // Full-generation references for both snapshots, served through the
  // store itself so the pipelines match exactly.
  auto expected_a = registry.Lookup("swapping")->service->TopKBatch(queries,
                                                                    kTopK);
  auto steady_expected =
      registry.Lookup("steady")->service->TopKBatch(queries, kTopK);
  WriteAllBytes(swap_snap, bytes_b);
  ASSERT_TRUE(store.Reload("swapping").ok());
  auto expected_b = registry.Lookup("swapping")->service->TopKBatch(queries,
                                                                    kTopK);
  ASSERT_NE(expected_a, expected_b);

  constexpr int kReloads = 24;
  constexpr int kReaders = 3;
  std::atomic<bool> writer_done{false};
  std::atomic<int> torn_batches{0};
  std::atomic<int> steady_changes{0};
  std::atomic<uint64_t> batches_read{0};

  auto reader = [&] {
    while (!writer_done.load(std::memory_order_acquire)) {
      std::shared_ptr<const Tenant> tenant = registry.Lookup("swapping");
      ASSERT_NE(tenant, nullptr);
      // The shared_ptr pins this generation through the whole batch even
      // if Reload publishes a successor mid-call.
      auto batch = tenant->service->TopKBatch(queries, kTopK);
      if (batch != expected_a && batch != expected_b) {
        torn_batches.fetch_add(1);
      }
      std::shared_ptr<const Tenant> steady = registry.Lookup("steady");
      if (steady->service->TopKBatch(queries, kTopK) != steady_expected) {
        steady_changes.fetch_add(1);
      }
      batches_read.fetch_add(1);
    }
  };
  auto writer = [&] {
    for (int i = 0; i < kReloads; ++i) {
      WriteAllBytes(swap_snap, (i % 2 == 0) ? bytes_a : bytes_b);
      ASSERT_TRUE(store.Reload("swapping").ok());
    }
    writer_done.store(true, std::memory_order_release);
  };

  std::vector<std::thread> threads;
  for (int i = 0; i < kReaders; ++i) threads.emplace_back(reader);
  std::thread writer_thread(writer);
  writer_thread.join();
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(torn_batches.load(), 0);
  EXPECT_EQ(steady_changes.load(), 0);
  EXPECT_GT(batches_read.load(), 0u);
  // 1 initial load + the explicit pre-hammer reload + kReloads swaps.
  EXPECT_EQ(registry.Lookup("swapping")->generation,
            1u + 1u + static_cast<uint64_t>(kReloads));
  EXPECT_EQ(registry.Lookup("steady")->generation, 1u);

  std::remove(swap_snap.c_str());
}

}  // namespace
}  // namespace simrankpp
