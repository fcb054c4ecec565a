// Retry/backoff policy and per-measurement outcome records.
//
// Under fault injection a bandwidth sample is no longer a number — it is a
// number plus the story of how it was obtained: did the transfer finish in
// one attempt, how many retries did it need, was it abandoned, and how much
// should a reader trust it. io::FioRunner attaches a MeasurementOutcome to
// each stream; `numaio_cli faults` prints them. Algorithm 1
// (model::build_iomodel) runs fault-free and records none.
#pragma once

#include <cstdint>
#include <string>

#include "simcore/rng.h"
#include "simcore/units.h"

namespace numaio::sim {

/// Backoff growth per retry, and its uniform +/- jitter fraction.
inline constexpr double kBackoffMultiplier = 2.0;
inline constexpr double kBackoffJitter = 0.25;

/// Bounded retry with exponential backoff and jitter. `timeout` is the
/// per-attempt budget (0 = no timeout); an attempt exceeding it is aborted
/// and retried until `max_retries` attempts have been burned.
struct RetryPolicy {
  int max_retries = 3;          ///< Retries after the first attempt.
  Ns timeout = 0.0;             ///< Per-attempt budget; 0 = unlimited.
  Ns base_backoff = 1.0e6;      ///< First backoff (1 ms).
  Ns max_backoff = 60.0e9;      ///< Ceiling on any single delay.
};

/// Backoff before retry number `attempt` (1-based: the delay after the
/// first failure is backoff_delay(policy, 1, rng)). Deterministic given the
/// rng state; jitter decorrelates retry storms across streams.
Ns backoff_delay(const RetryPolicy& policy, int attempt, Rng& rng);

/// The provenance of one bandwidth sample.
struct MeasurementOutcome {
  bool ok = true;          ///< The measurement completed (possibly retried).
  int retries = 0;         ///< Attempts burned beyond the first.
  bool aborted = false;    ///< Gave up: the sample is partial or missing.
  /// [0, 1]: 1 = clean single attempt with tight dispersion; degraded by
  /// retries, dispersion, and active fault windows; 0 = aborted.
  double confidence = 1.0;
};

/// "ok", "ok r2 c0.85", "aborted r3", ... — compact report form.
std::string to_string(const MeasurementOutcome& outcome);

}  // namespace numaio::sim
