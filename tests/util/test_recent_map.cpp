// Unit tests for the fixed-capacity recent-writes map behind the
// signaling engine's outcome windows.

#include "util/recent_map.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

namespace rtcac {
namespace {

TEST(RecentMap, HoldsEveryWriteUntilFull) {
  RecentMap<int, std::string, 4> map;
  EXPECT_EQ(map.find(1), nullptr);
  for (int k = 1; k <= 4; ++k) map.insert_or_assign(k, std::to_string(k));
  EXPECT_EQ(map.size(), 4u);
  for (int k = 1; k <= 4; ++k) {
    ASSERT_NE(map.find(k), nullptr);
    EXPECT_EQ(*map.find(k), std::to_string(k));
  }
}

TEST(RecentMap, EachWriteBeyondCapacityEvictsTheOldest) {
  RecentMap<int, int, 3> map;
  for (int k = 1; k <= 10; ++k) {
    map.insert_or_assign(k, 10 * k);
    EXPECT_EQ(map.size(), static_cast<std::size_t>(std::min(k, 3)));
    // The entry written Capacity writes ago is gone; the newer stay.
    if (k > 3) {
      EXPECT_EQ(map.find(k - 3), nullptr);
    }
    for (int j = std::max(1, k - 2); j <= k; ++j) {
      ASSERT_NE(map.find(j), nullptr);
      EXPECT_EQ(*map.find(j), 10 * j);
    }
  }
}

TEST(RecentMap, RewritingAKeyMakesItTheNewest) {
  RecentMap<int, int, 3> map;
  map.insert_or_assign(1, 1);
  map.insert_or_assign(2, 2);
  map.insert_or_assign(3, 3);
  map.insert_or_assign(1, 100);  // 1 is now the newest; 2 the oldest
  EXPECT_EQ(map.size(), 3u);
  EXPECT_EQ(*map.find(1), 100);
  map.insert_or_assign(4, 4);
  EXPECT_EQ(map.find(2), nullptr);
  ASSERT_NE(map.find(1), nullptr);
  map.insert_or_assign(5, 5);
  map.insert_or_assign(6, 6);
  // Three writes after its rewrite, key 1 goes too.
  EXPECT_EQ(map.find(1), nullptr);
  EXPECT_EQ(map.find(3), nullptr);
  EXPECT_EQ(map.size(), 3u);
  EXPECT_EQ(*map.find(4), 4);
  EXPECT_EQ(*map.find(6), 6);
}

}  // namespace
}  // namespace rtcac
