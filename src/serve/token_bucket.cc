#include "serve/token_bucket.h"

#include <algorithm>

namespace simrankpp {

TokenBucket::TokenBucket(double rate, double burst)
    : rate_(rate), burst_(std::max(burst, 1.0)), tokens_(burst_) {}

void TokenBucket::RefillTo(double now_seconds) {
  if (!primed_) {
    // The first observation anchors the clock; the bucket starts full.
    last_refill_ = now_seconds;
    primed_ = true;
    return;
  }
  double elapsed = now_seconds - last_refill_;
  if (elapsed <= 0.0) return;
  tokens_ = std::min(burst_, tokens_ + elapsed * rate_);
  last_refill_ = now_seconds;
}

bool TokenBucket::TryAcquire(double now_seconds) {
  if (unlimited()) return true;
  RefillTo(now_seconds);
  if (tokens_ < 1.0) return false;
  tokens_ -= 1.0;
  return true;
}

}  // namespace simrankpp
