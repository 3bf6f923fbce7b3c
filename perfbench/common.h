// Helpers shared by the perfbench_tool subcommands: the monotonic clock,
// the reply digest both the load generator and the reference replay
// compute, the in-memory span log, and the one-line JSON summary each
// subcommand prints for run.py.
#ifndef SIMRANKPP_PERFBENCH_COMMON_H_
#define SIMRANKPP_PERFBENCH_COMMON_H_

#include <time.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "serve/protocol.h"

namespace perfbench {

// The k of every TopK request the generator sends and the replay answers.
inline constexpr uint16_t kTopK = 10;

// CLOCK_MONOTONIC nanoseconds: the clock Python's time.monotonic_ns()
// reads, so spans from run.py and from this binary share one time axis.
inline int64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// FNV-1a 64 over every item's text and the IEEE-754 bits of its score.
// Equal digests mean bit-identical replies.
inline uint64_t ReplyDigest(const std::vector<simrankpp::TopKItem>& items) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  const uint64_t count = items.size();
  mix(&count, sizeof(count));
  for (const simrankpp::TopKItem& item : items) {
    mix(item.text.data(), item.text.size());
    mix("", 1);
    uint64_t bits = 0;
    std::memcpy(&bits, &item.score, sizeof(bits));
    mix(&bits, sizeof(bits));
  }
  return h;
}

// Spans kept in memory and written once at exit as TSV rows:
// id, parent (-1 for a root), request id, name, start_ns, end_ns.
// run.py re-parents the roots under the span that launched the process.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  int Begin(const char* name, int parent = -1, uint64_t request_id = 0) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, parent, request_id, NowNs(), 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = NowNs();
  }
  bool Write(const std::string& path) const {
    if (!enabled_ || path.empty()) return true;
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu\t%d\t%llu\t%s\t%lld\t%lld\n", i, s.parent,
                   static_cast<unsigned long long>(s.request_id), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    int parent;
    uint64_t request_id;
    int64_t start_ns;
    int64_t end_ns;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

// Collects numeric results and prints them as one JSON object line.
class Summary {
 public:
  void Set(const std::string& key, double value) { values_[key] = value; }
  void Print() const {
    std::string out = "{";
    for (const auto& [key, value] : values_) {
      if (out.size() > 1) out += ", ";
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", value);
      out += "\"" + key + "\": " + buf;
    }
    out += "}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  std::map<std::string, double> values_;
};

// "--name value" lookup over argv (the CLI's flag convention).
inline const char* Flag(int argc, char** argv, const char* name,
                        const char* fallback) {
  for (int i = 0; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

// Every value of a repeatable flag, in order.
inline std::vector<std::string> FlagValues(int argc, char** argv,
                                           const char* name) {
  std::vector<std::string> values;
  for (int i = 0; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) values.emplace_back(argv[i + 1]);
  }
  return values;
}

// Reads one entry per line (no trailing newline kept).
std::vector<std::string> ReadLines(const std::string& path);

int RunGen(int argc, char** argv);
int RunOffline(int argc, char** argv);
int RunReplay(int argc, char** argv);
int RunOpenLoop(int argc, char** argv);

}  // namespace perfbench

#endif  // SIMRANKPP_PERFBENCH_COMMON_H_
