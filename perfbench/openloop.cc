// Open-loop TopK load against a running serve-daemon.
//
// Requests follow a fixed schedule (request i is due at start + i/rate),
// independent of how fast replies come back, so a stall in the daemon
// delays every request scheduled behind it instead of slowing the
// offered load (closed-loop load hides that: coordinated omission). Each
// request is timed from its due time, and the time it actually left is
// recorded too, so run.py can report how late the generator itself ran.
//
//   perfbench_tool openloop --port P --rate R --seconds D --out F
//       --target TENANT:QUERYFILE:SHARE:ZIPF [--target ...]
//       [--connections C] [--seed S]
//
// QUERYFILE lists query texts most-popular first; ZIPF (> 0) is the
// exponent of the popularity draw. Every record (40 bytes, little-endian) is
//   int64 due_ns, int64 sent_ns, int64 done_ns (-1: no reply),
//   uint64 reply digest, uint32 query index, uint16 wire code
//   (0xffff: no reply), uint8 target index, uint8 pad
// for each request past the warm-up, in connection order.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>
#include <cerrno>
#include <cstdlib>
#include <deque>
#include <fcntl.h>
#include <thread>

#include "common.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/zipf.h"

namespace perfbench {
namespace {

using simrankpp::FrameHeader;
using simrankpp::FrameType;

constexpr uint16_t kNoReply = 0xffff;
// Requests of the first kWarmupS seconds are sent but not recorded, so
// that fresh connections settle first.
constexpr double kWarmupS = 0.1;
// How long a connection waits for replies after its last due time.
constexpr int64_t kDrainNs = 2000000000;

struct Target {
  std::string tenant;
  std::vector<std::string> queries;
  double share = 1.0;
  double zipf = 1.0;
};

#pragma pack(push, 1)
struct Record {
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t done_ns = -1;
  uint64_t digest = 0;
  uint32_t query = 0;
  uint16_t code = kNoReply;
  uint8_t target = 0;
  uint8_t pad = 0;
};
#pragma pack(pop)
static_assert(sizeof(Record) == 40);

// One connection's slice of the schedule and its outcomes.
struct Lane {
  std::vector<Record> records;
  std::string error;
};

int ConnectTo(uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

// Sends lane.records on schedule over `fd` and matches replies by
// request id (the record index). Returns when every request is answered
// or kDrainNs after the last due time.
void DriveLane(int fd, const std::vector<Target>& targets, Lane* lane) {
  prctl(PR_SET_TIMERSLACK, 1000UL);  // wake within ~1 us of the due time
  std::vector<Record>& recs = lane->records;
  const size_t n = recs.size();
  const int64_t give_up =
      (n == 0 ? NowNs() : recs.back().due_ns) + kDrainNs;
  size_t next = 0;
  size_t answered = 0;
  std::string out;
  size_t out_off = 0;
  // Requests encoded into `out` but not yet fully handed to the kernel,
  // with the offset their frame ends at; each gets its send time when
  // the last byte leaves.
  std::deque<std::pair<size_t, size_t>> unsent;
  std::string in;
  size_t in_off = 0;
  char buf[1 << 16];
  std::vector<simrankpp::TopKItem> items;
  while (answered < n) {
    int64_t now = NowNs();
    while (next < n && recs[next].due_ns <= now) {
      const Target& t = targets[recs[next].target];
      simrankpp::AppendTopKRequestFrame(
          {t.tenant, t.queries[recs[next].query], kTopK},
          static_cast<uint32_t>(next), &out);
      unsent.emplace_back(next, out.size());
      ++next;
    }
    if (out_off < out.size()) {
      ssize_t w = send(fd, out.data() + out_off, out.size() - out_off,
                       MSG_NOSIGNAL);
      if (w > 0) {
        out_off += static_cast<size_t>(w);
        const int64_t sent = NowNs();
        while (!unsent.empty() && unsent.front().second <= out_off) {
          recs[unsent.front().first].sent_ns = sent;
          unsent.pop_front();
        }
      } else if (w < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
        lane->error = std::string("send: ") + std::strerror(errno);
        return;
      }
      if (out_off == out.size()) {
        out.clear();
        out_off = 0;
      }
    }
    if (now >= give_up) return;
    int64_t wait_ns = give_up - now;
    if (next < n) wait_ns = std::min(wait_ns, recs[next].due_ns - now);
    pollfd pfd{fd, static_cast<short>(POLLIN | (out.empty() ? 0 : POLLOUT)),
               0};
    timespec ts{static_cast<time_t>(wait_ns / 1000000000),
                static_cast<long>(wait_ns % 1000000000)};
    if (ppoll(&pfd, 1, &ts, nullptr) < 0 && errno != EINTR) {
      lane->error = std::string("ppoll: ") + std::strerror(errno);
      return;
    }
    if (!(pfd.revents & (POLLIN | POLLHUP | POLLERR))) continue;
    ssize_t r = recv(fd, buf, sizeof(buf), 0);
    if (r == 0) {
      lane->error = "daemon closed the connection";
      return;
    }
    if (r < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
      lane->error = std::string("recv: ") + std::strerror(errno);
      return;
    }
    const int64_t done = NowNs();
    in.append(buf, static_cast<size_t>(r));
    while (true) {
      std::string_view view(in.data() + in_off, in.size() - in_off);
      FrameHeader header;
      simrankpp::FrameDecode decode = simrankpp::DecodeFrameHeader(
          view, simrankpp::kMaxFramePayloadBytes, &header);
      if (decode == simrankpp::FrameDecode::kNeedMoreData) break;
      if (decode != simrankpp::FrameDecode::kOk) {
        lane->error = "undecodable response header";
        return;
      }
      const size_t frame = simrankpp::kFrameHeaderBytes + header.payload_bytes;
      if (view.size() < frame) break;
      std::string_view payload = view.substr(simrankpp::kFrameHeaderBytes,
                                             header.payload_bytes);
      if (header.request_id >= next ||
          recs[header.request_id].code != kNoReply) {
        lane->error = "reply for an unknown request id";
        return;
      }
      Record& rec = recs[header.request_id];
      rec.done_ns = done;
      rec.code = header.code;
      if (header.type == static_cast<uint8_t>(FrameType::kTopKResponse) &&
          header.code == 0) {
        if (!simrankpp::ParseTopKResponsePayload(payload, &items)) {
          lane->error = "malformed TopK response";
          return;
        }
        rec.digest = ReplyDigest(items);
      } else if (header.code == 0) {
        lane->error = "unexpected response frame type";
        return;
      }
      ++answered;
      in_off += frame;
    }
    if (in_off == in.size()) {
      in.clear();
      in_off = 0;
    } else if (in_off > (1u << 20)) {
      in.erase(0, in_off);
      in_off = 0;
    }
  }
}

bool ParseTarget(const std::string& spec, Target* out) {
  std::vector<std::string> parts = simrankpp::SplitString(spec, ':');
  if (parts.size() != 4) return false;
  out->tenant = parts[0];
  out->queries = ReadLines(parts[1]);
  out->share = std::strtod(parts[2].c_str(), nullptr);
  out->zipf = std::strtod(parts[3].c_str(), nullptr);
  return !out->queries.empty() && out->share > 0 && out->zipf > 0;
}

}  // namespace

int RunOpenLoop(int argc, char** argv) {
  const long port = std::strtol(Flag(argc, argv, "--port", "0"), nullptr, 10);
  const double rate = std::strtod(Flag(argc, argv, "--rate", "0"), nullptr);
  const double seconds =
      std::strtod(Flag(argc, argv, "--seconds", "0"), nullptr);
  const size_t connections =
      std::strtoull(Flag(argc, argv, "--connections", "2"), nullptr, 10);
  const uint64_t seed =
      std::strtoull(Flag(argc, argv, "--seed", "1"), nullptr, 10);
  const char* out_path = Flag(argc, argv, "--out", nullptr);
  std::vector<Target> targets;
  for (const std::string& spec : FlagValues(argc, argv, "--target")) {
    Target target;
    if (!ParseTarget(spec, &target)) {
      std::fprintf(stderr, "bad --target %s\n", spec.c_str());
      return 2;
    }
    targets.push_back(std::move(target));
  }
  if (port <= 0 || port > 65535 || rate <= 0 || seconds <= 0 ||
      connections == 0 || targets.empty() || targets.size() > 255 ||
      out_path == nullptr) {
    std::fprintf(stderr, "openloop: missing or invalid arguments\n");
    return 2;
  }

  // The whole schedule is drawn up front from the seed, so the same seed
  // offers the same requests in the same order at the same due times.
  double share_total = 0;
  for (const Target& t : targets) share_total += t.share;
  std::vector<simrankpp::ZipfSampler> zipfs;
  for (const Target& t : targets) zipfs.emplace_back(t.queries.size(), t.zipf);
  simrankpp::Rng rng(seed);
  const auto total = static_cast<size_t>(rate * (kWarmupS + seconds));
  const auto warm_count = static_cast<size_t>(rate * kWarmupS);
  std::vector<Lane> lanes(connections);
  const int64_t start = NowNs() + 50000000;  // connect before the first due
  for (size_t i = 0; i < total; ++i) {
    Record rec;
    double pick = rng.NextDouble() * share_total;
    size_t t = 0;
    while (t + 1 < targets.size() && pick >= targets[t].share) {
      pick -= targets[t].share;
      ++t;
    }
    rec.target = static_cast<uint8_t>(t);
    rec.query = static_cast<uint32_t>(zipfs[t].Sample(&rng) - 1);
    rec.due_ns = start + static_cast<int64_t>(static_cast<double>(i) * 1e9 /
                                              rate);
    lanes[i % connections].records.push_back(rec);
  }

  std::vector<int> fds;
  for (size_t c = 0; c < connections; ++c) {
    int fd = ConnectTo(static_cast<uint16_t>(port));
    if (fd < 0) {
      std::fprintf(stderr, "openloop: connect to port %ld failed\n", port);
      for (int open_fd : fds) close(open_fd);
      return 1;
    }
    fds.push_back(fd);
  }
  std::vector<std::thread> threads;
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back(DriveLane, fds[c], std::cref(targets), &lanes[c]);
  }
  for (std::thread& thread : threads) thread.join();
  for (int fd : fds) close(fd);

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  FILE* out = std::fopen(out_path, "wb");
  if (out == nullptr) {
    std::fprintf(stderr, "openloop: cannot write %s\n", out_path);
    return 1;
  }
  size_t written = 0;
  for (size_t c = 0; c < connections; ++c) {
    if (!lanes[c].error.empty()) {
      std::fprintf(stderr, "openloop: connection %zu: %s\n", c,
                   lanes[c].error.c_str());
      std::fclose(out);
      return 1;
    }
    // Lane c holds global requests c, c+C, c+2C, ...; the warm-up is the
    // first warm_count of those global indices.
    const size_t skip = warm_count > c
                            ? (warm_count - c + connections - 1) / connections
                            : 0;
    const std::vector<Record>& recs = lanes[c].records;
    if (skip < recs.size()) {
      std::fwrite(recs.data() + skip, sizeof(Record), recs.size() - skip, out);
      written += recs.size() - skip;
    }
  }
  if (std::fclose(out) != 0) return 1;
  Summary summary;
  summary.Set("requests", static_cast<double>(written));
  summary.Set("cpu_s", static_cast<double>(usage.ru_utime.tv_sec) +
                           static_cast<double>(usage.ru_stime.tv_sec) +
                           (usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
                               1e6);
  summary.Print();
  return 0;
}

}  // namespace perfbench
