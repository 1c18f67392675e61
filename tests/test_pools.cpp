// Tests for the prefix / community-set interning pools.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <vector>

#include "bgp/pools.h"

namespace bgpatoms::bgp {
namespace {

TEST(PrefixPool, InternAssignsSequentialIds) {
  PrefixPool pool;
  const auto a = pool.intern(*net::Prefix::parse("10.0.0.0/8"));
  const auto b = pool.intern(*net::Prefix::parse("10.1.0.0/16"));
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(pool.intern(*net::Prefix::parse("10.0.0.0/8")), a);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.get(b), *net::Prefix::parse("10.1.0.0/16"));
}

TEST(PrefixPool, FindDoesNotIntern) {
  PrefixPool pool;
  EXPECT_EQ(pool.find(*net::Prefix::parse("10.0.0.0/8")), UINT32_MAX);
  EXPECT_EQ(pool.size(), 0u);
  pool.intern(*net::Prefix::parse("10.0.0.0/8"));
  EXPECT_EQ(pool.find(*net::Prefix::parse("10.0.0.0/8")), 0u);
}

TEST(Community, PackingRoundTrip) {
  const Community c = make_community(3257, 2990);
  EXPECT_EQ(community_asn(c), 3257);
  EXPECT_EQ(community_value(c), 2990);
}

TEST(CommunitySetPool, EmptySetIsIdZero) {
  CommunitySetPool pool;
  EXPECT_EQ(pool.intern({}), 0u);
  EXPECT_TRUE(pool.get(0).empty());
  EXPECT_EQ(pool.size(), 1u);
}

TEST(CommunitySetPool, CanonicalizesOrderAndDuplicates) {
  CommunitySetPool pool;
  const auto a = pool.intern({make_community(1, 2), make_community(3, 4)});
  const auto b = pool.intern({make_community(3, 4), make_community(1, 2)});
  const auto c = pool.intern({make_community(3, 4), make_community(1, 2),
                              make_community(1, 2)});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
  EXPECT_EQ(pool.get(a).size(), 2u);
}

TEST(CommunitySetPool, DistinctSetsGetDistinctIds) {
  CommunitySetPool pool;
  const auto a = pool.intern({make_community(1, 2)});
  const auto b = pool.intern({make_community(1, 3)});
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.size(), 3u);  // empty + two
}


TEST(CommunitySetPool, MatchesFirstSightMapOracle) {
  // Random unsorted sets with repeats over a small value space: the pool
  // must hand out ids in first-sight order of the canonical (sorted,
  // deduplicated) set, through several index growths.
  std::mt19937_64 rng(77);
  CommunitySetPool pool;
  std::map<std::vector<Community>, std::uint32_t> oracle{{{}, 0}};
  std::size_t mismatches = 0;
  for (int i = 0; i < 30000; ++i) {
    std::vector<Community> set(rng() % 5);
    for (auto& c : set) {
      c = make_community(static_cast<std::uint16_t>(rng() % 6),
                         static_cast<std::uint16_t>(rng() % 8));
    }
    auto canonical = set;
    std::sort(canonical.begin(), canonical.end());
    canonical.erase(std::unique(canonical.begin(), canonical.end()),
                    canonical.end());
    const auto [it, fresh] = oracle.emplace(
        canonical, static_cast<std::uint32_t>(oracle.size()));
    mismatches += pool.intern(set) == it->second ? 0 : 1;
  }
  EXPECT_EQ(mismatches, 0u);
  ASSERT_EQ(pool.size(), oracle.size());
  for (const auto& [set, id] : oracle) EXPECT_EQ(pool.get(id), set);
  EXPECT_GT(oracle.size(), 1000u);
}

}  // namespace
}  // namespace bgpatoms::bgp
