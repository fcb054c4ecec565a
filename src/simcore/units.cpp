#include "simcore/units.h"

#include <array>
#include <cstdio>

namespace numaio::sim {

std::string format_bytes(Bytes v) {
  std::array<char, 48> buf{};
  if (v >= kGiB && v % kGiB == 0) {
    std::snprintf(buf.data(), buf.size(), "%llu GiB",
                  static_cast<unsigned long long>(v / kGiB));
  } else if (v >= kMiB && v % kMiB == 0) {
    std::snprintf(buf.data(), buf.size(), "%llu MiB",
                  static_cast<unsigned long long>(v / kMiB));
  } else if (v >= kKiB && v % kKiB == 0) {
    std::snprintf(buf.data(), buf.size(), "%llu KiB",
                  static_cast<unsigned long long>(v / kKiB));
  } else {
    std::snprintf(buf.data(), buf.size(), "%llu B",
                  static_cast<unsigned long long>(v));
  }
  return std::string(buf.data());
}

}  // namespace numaio::sim
