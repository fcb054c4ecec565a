#include "simcore/units.h"

#include <gtest/gtest.h>

namespace numaio::sim {
namespace {

TEST(Units, GbpsFromBytesAndNs) {
  // 1 byte in 8 ns = 1 Gbps.
  EXPECT_DOUBLE_EQ(gbps(1, 8.0), 1.0);
  // 128 KiB in 1 us.
  EXPECT_DOUBLE_EQ(gbps(128 * kKiB, 1000.0), 128.0 * 1024 * 8 / 1000.0);
}

TEST(Units, SizeConstants) {
  EXPECT_EQ(kMiB, 1024u * 1024u);
  EXPECT_EQ(kGiB, 1024u * kMiB);
}

TEST(Units, FormatBytes) {
  EXPECT_EQ(format_bytes(128 * kKiB), "128 KiB");
  EXPECT_EQ(format_bytes(400 * kGiB), "400 GiB");
  EXPECT_EQ(format_bytes(64 * kMiB), "64 MiB");
  EXPECT_EQ(format_bytes(123), "123 B");
}

}  // namespace
}  // namespace numaio::sim
