// Vendored micro-benchmark harness shared by the bench_perf_* binaries:
// flag parsing and a best-of-N timing loop built on Stopwatch. Replaces
// the former google-benchmark dependency so CI can always build AND
// execute these benches (every one supports --smoke for a seconds-long
// run). Deliberately tiny: wall-clock best-of-N is all the perf tracking
// here needs, and the table output matches the rest of the repo.
#ifndef SIMRANKPP_BENCH_PERF_HARNESS_H_
#define SIMRANKPP_BENCH_PERF_HARNESS_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace simrankpp {
namespace bench {

// Minimal flag scanner: --name value pairs anywhere in argv.
inline const char* FlagValue(int argc, char** argv, const char* name,
                             const char* fallback) {
  for (int i = 0; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

inline bool HasFlag(int argc, char** argv, const char* name) {
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

// Parses "1,2,4,8" into a list of sizes. Every element must be a plain
// decimal count: a malformed one ("1,x", "1,,2", "-1") empties the list,
// so the caller rejects the whole flag.
inline std::vector<size_t> ParseSizeList(const std::string& spec) {
  std::vector<size_t> values;
  for (const std::string& element : SplitString(spec, ',')) {
    size_t value = 0;
    if (!ParseSize(element, &value)) return {};
    values.push_back(value);
  }
  return values;
}

// Strict --repeats: a positive decimal count or `fallback` when absent.
// Anything else ("0", "-1", "3x") prints `usage` and exits 2 instead of
// wrapping to 2^64 - 1 or reading a prefix.
inline size_t RepeatsFlag(int argc, char** argv, const char* fallback,
                          const char* usage) {
  size_t repeats = 0;
  if (!ParseSize(FlagValue(argc, argv, "--repeats", fallback), &repeats) ||
      repeats == 0) {
    std::fprintf(stderr, "usage: %s\n", usage);
    std::exit(2);
  }
  return repeats;
}

// Runs `fn` `repeats` times and returns every wall-clock sample in
// seconds, in run order.
inline std::vector<double> TimedSamples(size_t repeats,
                                        const std::function<void()>& fn) {
  std::vector<double> samples;
  samples.reserve(repeats);
  for (size_t r = 0; r < repeats; ++r) {
    Stopwatch timer;
    fn();
    samples.push_back(timer.ElapsedSeconds());
  }
  return samples;
}

// Best-of-N (not mean) because scheduling noise only ever adds time.
inline double BestSeconds(size_t repeats, const std::function<void()>& fn) {
  std::vector<double> samples = TimedSamples(repeats, fn);
  return *std::min_element(samples.begin(), samples.end());
}

// Median of a sample set (upper median for even sizes: with the tiny rep
// counts used here, averaging two samples would manufacture a time no run
// ever exhibited).
inline double MedianSeconds(std::vector<double> samples) {
  auto mid = samples.begin() + samples.size() / 2;
  std::nth_element(samples.begin(), mid, samples.end());
  return *mid;
}

// One timed case as exported to the machine-readable report.
struct PerfCase {
  std::string name;
  size_t reps = 0;
  uint64_t median_ns = 0;
  uint64_t best_ns = 0;
  // Free-form dimensions of the case (graph size, pair counts, ...),
  // whatever the run's note reported.
  std::string note;
};

// Accumulates (case, best ms, note) rows and prints one table. The
// `repeats` knob applies to every case added through Run.
class PerfTable {
 public:
  PerfTable(std::string title, size_t repeats)
      : table_(std::move(title)), repeats_(repeats) {
    table_.SetHeader({"case", "best ms", "note"});
  }

  // Times `fn` and records a row; `note` carries the case's size/label
  // (edges, pairs, ...), often produced by the run itself.
  void Run(const std::string& name, const std::function<std::string()>& fn) {
    std::string note;
    std::vector<double> samples = TimedSamples(repeats_, [&] { note = fn(); });
    double best = *std::min_element(samples.begin(), samples.end());
    table_.AddRow({name, FormatDouble(best * 1e3, 2), note});
    PerfCase result;
    result.name = name;
    result.reps = repeats_;
    result.median_ns = static_cast<uint64_t>(MedianSeconds(samples) * 1e9);
    result.best_ns = static_cast<uint64_t>(best * 1e9);
    result.note = note;
    cases_.push_back(std::move(result));
  }

  void Print() { table_.Print(); }

  const std::vector<PerfCase>& cases() const { return cases_; }

 private:
  TablePrinter table_;
  size_t repeats_;
  std::vector<PerfCase> cases_;
};

// Machine-readable perf report: collects the cases of one or more
// PerfTables and writes them as a flat JSON array, one object per case.
// This is what the BENCH_*.json trajectory files at the repo root hold,
// and what CI diffs against the committed baseline.
class JsonReport {
 public:
  void Add(const PerfTable& table) {
    for (const PerfCase& c : table.cases()) cases_.push_back(c);
  }

  // Standalone row for values measured outside a PerfTable timing loop
  // (e.g. server-side stage means scraped from /metrics).
  void AddCase(PerfCase c) { cases_.push_back(std::move(c)); }

  bool WriteFile(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\n  \"benchmarks\": [\n", f);
    for (size_t i = 0; i < cases_.size(); ++i) {
      const PerfCase& c = cases_[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"reps\": %zu, "
                   "\"median_ns\": %llu, \"best_ns\": %llu, "
                   "\"note\": \"%s\"}%s\n",
                   Escaped(c.name).c_str(), c.reps,
                   static_cast<unsigned long long>(c.median_ns),
                   static_cast<unsigned long long>(c.best_ns),
                   Escaped(c.note).c_str(),
                   i + 1 < cases_.size() ? "," : "");
    }
    std::fputs("  ]\n}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  // Case names/notes are benchmark-controlled identifiers; quoting and
  // backslashes are the only escapes they can plausibly need.
  static std::string Escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char ch : s) {
      if (ch == '"' || ch == '\\') out.push_back('\\');
      out.push_back(ch);
    }
    return out;
  }

  std::vector<PerfCase> cases_;
};

}  // namespace bench
}  // namespace simrankpp

#endif  // SIMRANKPP_BENCH_PERF_HARNESS_H_
