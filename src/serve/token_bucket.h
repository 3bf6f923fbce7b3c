/// @file token_bucket.h
/// @brief Per-tenant admission rate limiter for the serve daemon.
///
/// A classic token bucket: tokens refill continuously at `rate` per
/// second up to `burst`, and each admitted request spends one. The clock
/// is an explicit caller argument (monotonic seconds) so tests drive it
/// deterministically and the daemon reads its steady clock exactly once
/// per admission decision. Thread-compatible, not thread-safe: each
/// instance is owned by exactly one thread (the daemon consults its
/// buckets from the single I/O event-loop thread only), so there is no
/// lock here and no capability to annotate — the single-owner contract
/// is the invariant (see docs/STATIC_ANALYSIS.md). If a bucket ever
/// needs cross-thread access, wrap it behind an `srpp::Mutex` with
/// `SRPP_GUARDED_BY` at the owning site rather than adding a lock here.
#ifndef SIMRANKPP_SERVE_TOKEN_BUCKET_H_
#define SIMRANKPP_SERVE_TOKEN_BUCKET_H_

namespace simrankpp {

/// \brief Continuous-refill token bucket; `rate <= 0` disables limiting.
class TokenBucket {
 public:
  /// \param rate tokens added per second; <= 0 means unlimited.
  /// \param burst bucket capacity (and initial fill); clamped to >= 1.
  TokenBucket(double rate, double burst);

  /// \brief Spends one token if available. `now_seconds` must be
  /// monotonic non-decreasing across calls (a clock going backwards is
  /// treated as no time having passed).
  bool TryAcquire(double now_seconds);

  bool unlimited() const { return rate_ <= 0.0; }

 private:
  void RefillTo(double now_seconds);

  double rate_;
  double burst_;
  double tokens_;
  double last_refill_ = 0.0;
  bool primed_ = false;
};

}  // namespace simrankpp

#endif  // SIMRANKPP_SERVE_TOKEN_BUCKET_H_
