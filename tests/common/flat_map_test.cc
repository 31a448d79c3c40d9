#include "common/flat_map.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

namespace fela::common {
namespace {

TEST(FlatMapTest, SubscriptInsertsDefaultAndFinds) {
  FlatMap<int, std::string> m;
  EXPECT_TRUE(m.empty());
  m[3] = "three";
  m[1] = "one";
  EXPECT_EQ(m.size(), 2u);
  EXPECT_TRUE(m.contains(1));
  EXPECT_FALSE(m.contains(2));
  EXPECT_EQ(m.find(3)->second, "three");
  EXPECT_EQ(m.find(2), m.end());
  m[3] = "THREE";  // overwrite, not duplicate
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m[3], "THREE");
}

TEST(FlatMapTest, IterationIsAlwaysKeySorted) {
  // The property the token-lease table depends on: a fence reclaims
  // leases in sorted key order no matter the insertion order.
  FlatMap<int, int> m;
  for (const int k : {5, 1, 9, 3, 7}) m[k] = k * 10;
  std::vector<int> keys;
  for (const auto& [k, v] : m) {
    keys.push_back(k);
    EXPECT_EQ(v, k * 10);
  }
  EXPECT_EQ(keys, (std::vector<int>{1, 3, 5, 7, 9}));
}

TEST(FlatMapTest, EraseByKeyAndIterator) {
  FlatMap<int, int> m;
  for (int k = 0; k < 5; ++k) m[k] = k;
  EXPECT_EQ(m.erase(2), 1u);
  EXPECT_EQ(m.erase(2), 0u);
  auto it = m.find(3);
  ASSERT_NE(it, m.end());
  it = m.erase(it);
  EXPECT_EQ(it->first, 4);  // erase returns the successor
  std::vector<int> keys;
  for (const auto& [k, v] : m) keys.push_back(k);
  EXPECT_EQ(keys, (std::vector<int>{0, 1, 4}));
}

TEST(FlatMapTest, MonotonicAppendFastPathStaysSorted) {
  // Token ids arrive in increasing order; the tail fast path must still
  // produce the same observable state as out-of-order inserts.
  FlatMap<std::uint64_t, int> m;
  for (std::uint64_t id = 0; id < 1000; ++id) m[id] = static_cast<int>(id);
  EXPECT_EQ(m.size(), 1000u);
  EXPECT_EQ(m.find(999)->second, 999);
  EXPECT_EQ(m.begin()->first, 0u);
}

TEST(FlatMapTest, ClearAndReserve) {
  FlatMap<int, int> m;
  m.reserve(16);
  m[1] = 1;
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(1), m.end());
}

TEST(FlatMapTest, MatchesStdMapUnderLeaseLikeChurn) {
  // Differential check against std::map under the lease workload:
  // mostly-monotonic inserts with random completions (erases) mixed in.
  FlatMap<std::uint64_t, int> flat;
  std::map<std::uint64_t, int> ref;
  std::mt19937_64 rng(42);
  std::uint64_t next_id = 0;
  for (int step = 0; step < 2000; ++step) {
    if (ref.empty() || rng() % 3 != 0) {
      const std::uint64_t id = next_id++;
      flat[id] = step;
      ref[id] = step;
    } else {
      auto victim = ref.begin();
      std::advance(victim, static_cast<long>(rng() % ref.size()));
      EXPECT_EQ(flat.erase(victim->first), 1u);
      ref.erase(victim);
    }
  }
  ASSERT_EQ(flat.size(), ref.size());
  auto fit = flat.begin();
  for (const auto& [k, v] : ref) {
    EXPECT_EQ(fit->first, k);
    EXPECT_EQ(fit->second, v);
    ++fit;
  }
}

}  // namespace
}  // namespace fela::common
