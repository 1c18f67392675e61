// Unit tests for the AS-path model, including the paper's §3.4.2
// prepending semantics and the AS_SET handling of §2.4.4.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <vector>

#include "net/aspath.h"

namespace bgpatoms::net {
namespace {

TEST(AsPath, SequenceBasics) {
  const auto p = AsPath::sequence({10, 20, 30});
  EXPECT_FALSE(p.empty());
  EXPECT_EQ(p.selection_length(), 3);
  EXPECT_EQ(p.origin(), 30u);
  EXPECT_EQ(p.head(), 10u);
  EXPECT_EQ(p.to_string(), "10 20 30");
}

TEST(AsPath, EmptyPath) {
  const AsPath p;
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.selection_length(), 0);
  EXPECT_EQ(p.origin(), std::nullopt);
  EXPECT_EQ(p.head(), std::nullopt);
  EXPECT_EQ(p.to_string(), "");
}

TEST(AsPath, ParseSimple) {
  const auto p = AsPath::parse("1 2 3");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(*p, AsPath::sequence({1, 2, 3}));
}

TEST(AsPath, ParseWithAsSet) {
  // The paper's notation: "1 2 [3 4 5]".
  const auto p = AsPath::parse("1 2 [3 4 5]");
  ASSERT_TRUE(p.has_value());
  ASSERT_EQ(p->segments().size(), 2u);
  EXPECT_EQ(p->segments()[0].type, SegmentType::kSequence);
  EXPECT_EQ(p->segments()[1].type, SegmentType::kSet);
  EXPECT_EQ(p->to_string(), "1 2 [3 4 5]");
  EXPECT_TRUE(p->has_set());
  EXPECT_EQ(p->selection_length(), 3);  // a set counts as one hop
}

TEST(AsPath, ParseRejectsMalformed) {
  EXPECT_FALSE(AsPath::parse("1 [2").has_value());
  EXPECT_FALSE(AsPath::parse("1 ]2[").has_value());
  EXPECT_FALSE(AsPath::parse("1 [[2]]").has_value());
  EXPECT_FALSE(AsPath::parse("[]").has_value());
  EXPECT_FALSE(AsPath::parse("1 x 2").has_value());
}

TEST(AsPath, ParseEmptyString) {
  const auto p = AsPath::parse("");
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->empty());
}

TEST(AsPath, OriginAfterAggregation) {
  // Origin is known only for sequences and singleton sets.
  EXPECT_EQ(AsPath::parse("1 2 [3]")->origin(), 3u);
  EXPECT_EQ(AsPath::parse("1 2 [3 4]")->origin(), std::nullopt);
}

TEST(AsPath, SingletonSetExpansion) {
  const auto p = *AsPath::parse("1 2 [3]");
  EXPECT_TRUE(p.sets_all_singleton());
  const auto expanded = p.with_singleton_sets_expanded();
  EXPECT_FALSE(expanded.has_set());
  EXPECT_EQ(expanded, AsPath::sequence({1, 2, 3}));
}

TEST(AsPath, SingletonSetExpansionInMiddle) {
  const auto p = *AsPath::parse("1 [2] 3");
  const auto expanded = p.with_singleton_sets_expanded();
  EXPECT_EQ(expanded, AsPath::sequence({1, 2, 3}));
}

TEST(AsPath, MultiSetNotExpanded) {
  const auto p = *AsPath::parse("1 [2 3]");
  EXPECT_FALSE(p.sets_all_singleton());
  EXPECT_TRUE(p.with_singleton_sets_expanded().has_set());
}

TEST(AsPath, PrependAddsCopiesAtHead) {
  auto p = AsPath::sequence({20, 30});
  p.prepend(10, 2);
  EXPECT_EQ(p, AsPath::sequence({10, 10, 20, 30}));
  EXPECT_EQ(p.selection_length(), 4);
}

TEST(AsPath, PrependOnEmptyPath) {
  AsPath p;
  p.prepend(7, 1);
  EXPECT_EQ(p, AsPath::sequence({7}));
}

TEST(AsPath, StrippedCollapsesPrepending) {
  const auto p = AsPath::sequence({1, 2, 2, 2, 3, 3});
  EXPECT_EQ(p.stripped(), AsPath::sequence({1, 2, 3}));
  EXPECT_EQ(p.unique_hop_count(), 3);
  // Idempotent.
  EXPECT_EQ(p.stripped().stripped(), p.stripped());
}

TEST(AsPath, StrippedKeepsNonAdjacentDuplicates) {
  const auto p = AsPath::sequence({1, 2, 1});
  EXPECT_EQ(p.stripped(), p);
}

TEST(AsPath, RunsFromOriginReversesAndCounts) {
  // Wire order: head first, origin last. 30 is the origin, prepended x3.
  const auto p = AsPath::sequence({10, 20, 20, 30, 30, 30});
  const auto runs = p.runs_from_origin();
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0], (AsRun{30, 3}));
  EXPECT_EQ(runs[1], (AsRun{20, 2}));
  EXPECT_EQ(runs[2], (AsRun{10, 1}));
}

TEST(AsPath, HasLoopDetectsNonAdjacentRepeat) {
  EXPECT_TRUE(AsPath::sequence({1, 2, 1}).has_loop());
  EXPECT_FALSE(AsPath::sequence({1, 1, 1, 2}).has_loop());  // prepending
  EXPECT_FALSE(AsPath::sequence({1, 2, 3}).has_loop());
  EXPECT_TRUE(AsPath::sequence({1, 2, 2, 3, 2}).has_loop());
}

TEST(AsPath, HasBogon) {
  EXPECT_TRUE(AsPath::sequence({25885, 65000, 3356}).has_bogon());
  EXPECT_FALSE(AsPath::sequence({25885, 3356}).has_bogon());
}

TEST(AsPath, FlatConcatenatesSegments) {
  const auto p = *AsPath::parse("1 2 [3 4]");
  EXPECT_EQ(p.flat(), (std::vector<Asn>{1, 2, 3, 4}));
}

TEST(AsPath, FromSegmentsDropsEmpty) {
  const auto p = AsPath::from_segments(
      {{SegmentType::kSequence, {}}, {SegmentType::kSequence, {1, 2}}});
  EXPECT_EQ(p, AsPath::sequence({1, 2}));
}

TEST(AsPath, HashDiffersForSetVsSequence) {
  EXPECT_NE(AsPath::parse("1 [2]")->hash(), AsPath::parse("1 2")->hash());
  EXPECT_NE(AsPath::sequence({1, 2}).hash(), AsPath::sequence({2, 1}).hash());
}

TEST(AsPath, ComparisonIsStructural) {
  EXPECT_EQ(*AsPath::parse("1 2 [3 4]"), *AsPath::parse("1 2 [3 4]"));
  EXPECT_NE(*AsPath::parse("1 2 [3 4]"), *AsPath::parse("1 2 3 4"));
}

TEST(PathPool, EmptyPathIsIdZero) {
  PathPool pool;
  EXPECT_EQ(pool.intern(AsPath()), PathPool::kEmptyPathId);
  EXPECT_TRUE(pool.get(PathPool::kEmptyPathId).empty());
  EXPECT_EQ(pool.size(), 1u);
}

TEST(PathPool, InternDeduplicates) {
  PathPool pool;
  const auto a = pool.intern(AsPath::sequence({1, 2, 3}));
  const auto b = pool.intern(AsPath::sequence({1, 2, 3}));
  const auto c = pool.intern(AsPath::sequence({1, 2, 4}));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(pool.size(), 3u);  // empty + two distinct
  EXPECT_EQ(pool.get(a), AsPath::sequence({1, 2, 3}));
}

TEST(PathPool, PrependingCreatesDistinctIds) {
  PathPool pool;
  const auto a = pool.intern(AsPath::sequence({1, 2, 3}));
  const auto b = pool.intern(AsPath::sequence({1, 2, 2, 3}));
  EXPECT_NE(a, b);
}

TEST(PathPool, ManyPathsStayConsistent) {
  PathPool pool;
  std::vector<PathPool::PathId> ids;
  for (Asn a = 1; a <= 500; ++a) {
    ids.push_back(pool.intern(AsPath::sequence({a, a + 1, a + 2})));
  }
  for (Asn a = 1; a <= 500; ++a) {
    EXPECT_EQ(pool.intern(AsPath::sequence({a, a + 1, a + 2})), ids[a - 1]);
  }
  EXPECT_EQ(pool.size(), 501u);
}


// A random path over a small ASN alphabet, so a long stream mixes repeats
// (pool hits) with first sights (misses that grow the index): pure
// sequences, prepended hops, AS_SETs and the empty path.
AsPath random_path(std::mt19937_64& rng) {
  const auto below = [&](std::uint64_t n) { return rng() % n; };
  const auto asn = [&] { return static_cast<Asn>(1 + below(24)); };
  std::vector<PathSegment> segs;
  switch (below(8)) {
    case 0:
      return AsPath();
    case 1: {  // prepended: one hop repeated 2-4 times
      std::vector<Asn> hops{asn(), asn()};
      hops.insert(hops.begin() + 1, 1 + below(3), hops[0]);
      return AsPath::sequence(std::move(hops));
    }
    case 2:  // sequence with an aggregated AS_SET tail
      segs.push_back({SegmentType::kSequence, {asn(), asn()}});
      segs.push_back({SegmentType::kSet, {asn(), asn()}});
      return AsPath::from_segments(std::move(segs));
    case 3:  // singleton set inside a sequence
      segs.push_back({SegmentType::kSequence, {asn()}});
      segs.push_back({SegmentType::kSet, {asn()}});
      segs.push_back({SegmentType::kSequence, {asn()}});
      return AsPath::from_segments(std::move(segs));
    default: {
      std::vector<Asn> hops(1 + below(5));
      for (auto& h : hops) h = asn();
      return AsPath::sequence(std::move(hops));
    }
  }
}

bool is_pure_sequence(const AsPath& p) {
  return p.empty() || (p.segments().size() == 1 &&
                       p.segments()[0].type == SegmentType::kSequence);
}

TEST(PathPool, MatchesFirstSightMapOracle) {
  std::mt19937_64 rng(20240917);
  PathPool pool;
  std::map<AsPath, PathPool::PathId> oracle{{AsPath(), 0}};
  std::size_t hits = 0;
  std::size_t mismatches = 0;
  for (int i = 0; i < 50000; ++i) {
    const AsPath p = random_path(rng);
    const auto [it, fresh] =
        oracle.emplace(p, static_cast<PathPool::PathId>(oracle.size()));
    hits += fresh ? 0 : 1;
    const auto flat = p.flat();
    const PathPool::PathId got = is_pure_sequence(p) && (rng() & 1)
                                     ? pool.intern_sequence(flat)
                                     : pool.intern(p);
    mismatches += got == it->second ? 0 : 1;
  }
  EXPECT_EQ(mismatches, 0u);
  ASSERT_EQ(pool.size(), oracle.size());
  for (const auto& [path, id] : oracle) EXPECT_EQ(pool.get(id), path);
  // Enough first sights for several table growths, and enough repeats
  // that the hit path carries the test too.
  EXPECT_GT(oracle.size(), 10000u);
  EXPECT_GT(hits, 10000u);
}

TEST(PathPool, InternSequenceAgreesWithInternEitherOrder) {
  const std::vector<std::vector<Asn>> seqs = {
      {}, {7}, {7, 7}, {1, 2, 3}, {3, 2, 1}, {1, 2, 2, 3}, {65000, 1}};
  for (const auto& v : seqs) {
    EXPECT_EQ(AsPath::sequence_hash(v), AsPath::sequence(v).hash());
  }
  PathPool span_first;
  PathPool path_first;
  for (const auto& v : seqs) {
    const auto a = span_first.intern_sequence(v);
    EXPECT_EQ(span_first.intern(AsPath::sequence(v)), a);
    const auto b = path_first.intern(AsPath::sequence(v));
    EXPECT_EQ(path_first.intern_sequence(v), b);
    EXPECT_EQ(a, b);
    EXPECT_EQ(span_first.get(a), AsPath::sequence(v));
    // Already interned: both entry points hit.
    EXPECT_EQ(span_first.intern_sequence(v), a);
    EXPECT_EQ(path_first.intern(AsPath::sequence(v)), b);
  }
  EXPECT_EQ(span_first.intern_sequence({}), PathPool::kEmptyPathId);
  EXPECT_EQ(span_first.size(), seqs.size());  // the empty path is id 0
  // A set path with the same hops is a different path.
  const auto set = span_first.intern(*AsPath::parse("1 2 [3]"));
  EXPECT_NE(set, span_first.intern_sequence(std::vector<Asn>{1, 2, 3}));
}

TEST(PathPool, CopiedPoolDivergesIndependently) {
  PathPool original;
  for (Asn a = 1; a <= 100; ++a) original.intern(AsPath::sequence({a, a}));
  PathPool copy = original;
  const auto n = static_cast<PathPool::PathId>(original.size());
  const AsPath x = AsPath::sequence({1000, 1});
  const AsPath y = AsPath::sequence({2000, 2});
  EXPECT_EQ(copy.intern(x), n);
  EXPECT_EQ(original.intern(y), n);
  EXPECT_EQ(copy.get(n), x);
  EXPECT_EQ(original.get(n), y);
  EXPECT_EQ(copy.intern(y), n + 1);
  EXPECT_EQ(original.intern(x), n + 1);
  // Growing the copy's index leaves the original's untouched.
  for (Asn a = 1; a <= 5000; ++a) copy.intern(AsPath::sequence({a, 7, a}));
  EXPECT_EQ(original.size(), n + 2);
  for (Asn a = 1; a <= 100; ++a) {
    EXPECT_EQ(original.intern(AsPath::sequence({a, a})), a);
    EXPECT_EQ(copy.intern(AsPath::sequence({a, a})), a);
  }
  EXPECT_EQ(original.size(), n + 2);
}

}  // namespace
}  // namespace bgpatoms::net
