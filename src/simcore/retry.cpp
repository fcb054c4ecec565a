#include "simcore/retry.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

namespace numaio::sim {

Ns backoff_delay(const RetryPolicy& policy, int attempt, Rng& rng) {
  assert(attempt >= 1);
  const double growth =
      std::pow(kBackoffMultiplier, static_cast<double>(attempt - 1));
  Ns delay = std::min(policy.base_backoff * growth, policy.max_backoff);
  delay *= rng.uniform(1.0 - kBackoffJitter, 1.0 + kBackoffJitter);
  return std::max(delay, 0.0);
}

std::string to_string(const MeasurementOutcome& outcome) {
  char buf[64];
  if (outcome.aborted) {
    std::snprintf(buf, sizeof buf, "aborted r%d", outcome.retries);
  } else if (outcome.retries > 0 || outcome.confidence < 1.0) {
    std::snprintf(buf, sizeof buf, "ok r%d c%.2f", outcome.retries,
                  outcome.confidence);
  } else {
    std::snprintf(buf, sizeof buf, "ok");
  }
  return buf;
}

}  // namespace numaio::sim
