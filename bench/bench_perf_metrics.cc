// Observability hot-path micro-benchmark: the per-request cost the
// metrics registry and request tracer add to the serving loop. Cases
// time N operations per rep (see kOpsPerRep), so the table's "best ms"
// divided by that count is the per-op cost. counter/increment and
// histogram/observe are the two calls on the daemon's per-request path;
// registry/snapshot and registry/prometheus_text are scrape-time costs
// (amortized over the scrape interval, not per request); trace/record is
// the full five-stage trace sink including the ring append.
//
//   bench_perf_metrics [--smoke] [--repeats N] [--json <path>]
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "perf_harness.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "util/trace.h"

namespace simrankpp {
namespace {

// Keeps the optimizer from eliding the timed loop bodies.
volatile double g_sink = 0.0;

// A registry shaped like a busy daemon's: a handful of tenants across
// the families the serving path touches, so snapshot/exposition costs
// reflect a realistic child count rather than an empty registry.
void Populate(MetricsRegistry* registry, size_t tenants) {
  for (size_t t = 0; t < tenants; ++t) {
    std::string tenant = StringPrintf("tenant%zu", t);
    for (const char* code : {"ok", "shed", "rate_limited", "draining"}) {
      registry
          ->GetCounter("srpp_requests_total", "Requests by outcome.",
                       {{"tenant", tenant}, {"code", code}})
          ->Increment(17);
    }
    auto* latency = registry->GetHistogram(
        "srpp_tenant_latency_seconds", "Round-trip latency.",
        ExponentialBuckets(1e-6, 4.0, 12), {{"tenant", tenant}});
    for (int i = 0; i < 64; ++i) latency->Observe(1e-5 * (i + 1));
  }
}

int Main(int argc, char** argv) {
  bool smoke = bench::HasFlag(argc, argv, "--smoke");
  const size_t repeats = bench::RepeatsFlag(
      argc, argv, smoke ? "3" : "7",
      "bench_perf_metrics [--smoke] [--repeats N] [--json <path>]");
  const char* json_path = bench::FlagValue(argc, argv, "--json", "");
  const size_t kOpsPerRep = smoke ? 200000 : 2000000;
  const size_t kScrapesPerRep = smoke ? 50 : 500;
  const size_t kTracesPerRep = smoke ? 50000 : 500000;
  const size_t kTenants = 8;

  MetricsRegistry registry;
  Populate(&registry, kTenants);
  Counter* counter = registry.GetCounter(
      "srpp_bench_ops_total", "Benchmark counter.", {{"tenant", "tenant0"}});
  HistogramMetric* histogram = registry.GetHistogram(
      "srpp_bench_latency_seconds", "Benchmark histogram.",
      ExponentialBuckets(1e-6, 4.0, 12), {{"tenant", "tenant0"}});

  bench::PerfTable table(
      StringPrintf("observability hot path (%s)", smoke ? "smoke" : "full"),
      repeats);

  table.Run("counter/increment", [&] {
    for (size_t i = 0; i < kOpsPerRep; ++i) counter->Increment();
    return StringPrintf("%zu ops", kOpsPerRep);
  });

  table.Run("histogram/observe", [&] {
    // Values sweep the bucket range so the branchy upper_bound path is
    // exercised, not one hot bucket.
    double value = 1e-6;
    for (size_t i = 0; i < kOpsPerRep; ++i) {
      histogram->Observe(value);
      value = value > 1e-2 ? 1e-6 : value * 1.001;
    }
    g_sink = value;
    return StringPrintf("%zu ops", kOpsPerRep);
  });

  table.Run("registry/snapshot", [&] {
    size_t families = 0;
    for (size_t i = 0; i < kScrapesPerRep; ++i) {
      families = registry.Snapshot().families.size();
    }
    return StringPrintf("%zu scrapes, %zu families", kScrapesPerRep,
                        families);
  });

  table.Run("registry/prometheus_text", [&] {
    size_t bytes = 0;
    for (size_t i = 0; i < kScrapesPerRep; ++i) {
      bytes = registry.PrometheusText().size();
    }
    return StringPrintf("%zu scrapes, %zu bytes", kScrapesPerRep, bytes);
  });

  {
    MetricsRegistry trace_registry;
    TraceRecorderOptions options;
    options.ring_capacity = 64;  // the daemon default
    TraceRecorder recorder(&trace_registry, options);
    RequestTrace trace;
    trace.tenant = "tenant0";
    trace.query = "bench query";
    trace.k = 10;
    trace.SetStage(TraceStage::kAdmission, 2e-6);
    trace.SetStage(TraceStage::kQueue, 5e-6);
    trace.SetStage(TraceStage::kBatch, 3e-6);
    trace.SetStage(TraceStage::kScore, 40e-6);
    trace.SetStage(TraceStage::kFlush, 4e-6);
    table.Run("trace/record", [&] {
      for (size_t i = 0; i < kTracesPerRep; ++i) {
        trace.request_id = static_cast<uint64_t>(i);
        recorder.Record(trace);
      }
      return StringPrintf("%zu traces", kTracesPerRep);
    });
  }

  table.Print();

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
