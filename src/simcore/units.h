// Units and quantity helpers shared across the toolkit.
//
// Bandwidths are expressed in Gbps (1e9 bits per second) throughout, matching
// the paper's reporting unit. Latencies are in nanoseconds, sizes in bytes.
// With these choices, bits / ns == Gbps, which keeps conversions trivial.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

namespace numaio::sim {

/// Bandwidth in gigabits per second (the paper's unit).
using Gbps = double;
/// Time in nanoseconds of simulated time.
using Ns = double;
/// Size in bytes.
using Bytes = std::uint64_t;

inline constexpr Bytes kKiB = 1024;
inline constexpr Bytes kMiB = 1024 * kKiB;
inline constexpr Bytes kGiB = 1024 * kMiB;

/// Sentinel for "no cap" in flow/rate computations.
inline constexpr Gbps kUnlimited = std::numeric_limits<double>::infinity();

/// Bandwidth of moving `bytes` in `ns` nanoseconds. `bits / ns == Gbps`.
constexpr Gbps gbps(Bytes bytes, Ns ns) {
  return static_cast<double>(bytes) * 8.0 / ns;
}

/// Human-readable byte size ("128 KiB", "400 GiB", ...).
std::string format_bytes(Bytes v);

}  // namespace numaio::sim
