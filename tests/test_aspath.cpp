// Unit tests for the AS-path model, including the paper's §3.4.2
// prepending semantics and the AS_SET handling of §2.4.4.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <utility>
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


// A random path over a small ASN alphabet, as its segment list, so a long
// stream mixes repeats (pool hits) with first sights (misses that grow the
// index): pure sequences, prepended hops, AS_SETs, singleton sets, split
// sequences, set-only paths and the empty path.
std::vector<PathSegment> random_segments(std::mt19937_64& rng) {
  const auto below = [&](std::uint64_t n) { return rng() % n; };
  const auto asn = [&] { return static_cast<Asn>(1 + below(24)); };
  const auto seq = [](std::vector<Asn> v) {
    return PathSegment{SegmentType::kSequence, std::move(v)};
  };
  const auto set = [](std::vector<Asn> v) {
    return PathSegment{SegmentType::kSet, std::move(v)};
  };
  switch (below(10)) {
    case 0:
      return {};
    case 1: {  // prepended: one hop repeated 2-4 times
      std::vector<Asn> hops{asn(), asn()};
      hops.insert(hops.begin() + 1, 1 + below(3), hops[0]);
      return {seq(std::move(hops))};
    }
    case 2:  // sequence with an aggregated AS_SET tail
      return {seq({asn(), asn()}), set({asn(), asn()})};
    case 3:  // singleton set inside a sequence
      return {seq({asn()}), set({asn()}), seq({asn()})};
    case 4:  // split sequence: [SEQ{a}, SEQ{b}] is not SEQ{a, b}
      return {seq({asn()}), seq({asn()})};
    case 5:  // set only
      return {set({asn(), asn()})};
    default: {
      std::vector<Asn> hops(1 + below(5));
      for (auto& h : hops) h = asn();
      return {seq(std::move(hops))};
    }
  }
}

// Reference answers computed straight from the segment list, sharing no
// code with PathView.
using SegmentKey = std::vector<std::pair<int, std::vector<Asn>>>;

SegmentKey key_of(const std::vector<PathSegment>& segs) {
  SegmentKey key;
  for (const auto& s : segs) {
    key.emplace_back(static_cast<int>(s.type), s.asns);
  }
  return key;
}

std::optional<Asn> ref_origin(const std::vector<PathSegment>& segs) {
  if (segs.empty()) return std::nullopt;
  const auto& last = segs.back();
  if (last.type == SegmentType::kSequence) return last.asns.back();
  if (last.asns.size() == 1) return last.asns.front();
  return std::nullopt;
}

int ref_selection_length(const std::vector<PathSegment>& segs) {
  int n = 0;
  for (const auto& s : segs) {
    n += s.type == SegmentType::kSet ? 1 : static_cast<int>(s.asns.size());
  }
  return n;
}

std::vector<Asn> ref_flat(const std::vector<PathSegment>& segs) {
  std::vector<Asn> out;
  for (const auto& s : segs) {
    out.insert(out.end(), s.asns.begin(), s.asns.end());
  }
  return out;
}

std::string ref_to_string(const std::vector<PathSegment>& segs) {
  std::string out;
  for (const auto& s : segs) {
    if (!out.empty()) out += ' ';
    std::string body;
    for (const Asn a : s.asns) {
      body += (body.empty() ? "" : " ") + std::to_string(a);
    }
    out += s.type == SegmentType::kSet ? "[" + body + "]" : body;
  }
  return out;
}

std::vector<AsRun> ref_runs(const std::vector<PathSegment>& segs) {
  std::vector<AsRun> runs;
  const auto hops = ref_flat(segs);
  for (std::size_t i = hops.size(); i-- > 0;) {
    if (!runs.empty() && runs.back().asn == hops[i]) {
      ++runs.back().count;
    } else {
      runs.push_back({hops[i], 1});
    }
  }
  return runs;
}

/// Every PathView query of `view` against the reference answers for
/// `segs`, and against the owning AsPath built from them.
void expect_view_matches(PathView view, const std::vector<PathSegment>& segs) {
  const bool has_set =
      std::any_of(segs.begin(), segs.end(),
                  [](const auto& s) { return s.type == SegmentType::kSet; });
  const bool all_singleton =
      std::all_of(segs.begin(), segs.end(), [](const auto& s) {
        return s.type == SegmentType::kSequence || s.asns.size() == 1;
      });
  const auto flat = ref_flat(segs);
  EXPECT_EQ(view.empty(), segs.empty());
  EXPECT_EQ(view.origin(), ref_origin(segs));
  EXPECT_EQ(view.head(),
            flat.empty() ? std::nullopt : std::optional<Asn>(flat.front()));
  EXPECT_EQ(view.has_set(), has_set);
  EXPECT_EQ(view.sets_all_singleton(), all_singleton);
  EXPECT_EQ(view.selection_length(), ref_selection_length(segs));
  EXPECT_EQ(view.flat(), flat);
  EXPECT_TRUE(std::equal(view.hops().begin(), view.hops().end(), flat.begin(),
                         flat.end()));
  EXPECT_EQ(view.runs_from_origin(), ref_runs(segs));
  EXPECT_EQ(view.to_string(), ref_to_string(segs));
  ASSERT_EQ(view.segments().size(), segs.size());
  std::size_t k = 0;
  for (const SegmentView seg : view.segments()) {
    EXPECT_EQ(seg.type, segs[k].type);
    EXPECT_TRUE(std::equal(seg.asns.begin(), seg.asns.end(),
                           segs[k].asns.begin(), segs[k].asns.end()));
    ++k;
  }
  const AsPath owned = AsPath::from_segments(segs);
  EXPECT_EQ(view, owned);
  EXPECT_EQ(view.hash(), owned.hash());
  EXPECT_EQ(view.stripped(), owned.stripped());
  EXPECT_EQ(view.with_singleton_sets_expanded(),
            owned.with_singleton_sets_expanded());
}

/// Interns `segs` through one of the pool's three entry points: an owning
/// path, the hop span (pure sequences) or in place, segment by segment.
PathPool::PathId intern_some_way(PathPool& pool,
                                 const std::vector<PathSegment>& segs,
                                 std::uint64_t how) {
  const bool pure_sequence =
      segs.empty() ||
      (segs.size() == 1 && segs[0].type == SegmentType::kSequence);
  if (how % 3 == 0 && pure_sequence) {
    return pool.intern_sequence(ref_flat(segs));
  }
  if (how % 3 == 1) {
    pool.begin_path();
    for (const auto& seg : segs) {
      const auto hops = pool.append_segment(seg.type, seg.asns.size());
      std::copy(seg.asns.begin(), seg.asns.end(), hops.begin());
    }
    return pool.end_path();
  }
  return pool.intern(AsPath::from_segments(segs));
}

TEST(PathPool, MatchesFirstSightMapOracle) {
  std::mt19937_64 rng(20240917);
  PathPool pool;
  std::map<SegmentKey, PathPool::PathId> oracle{{SegmentKey{}, 0}};
  std::vector<std::vector<PathSegment>> by_id{{}};
  std::size_t hits = 0;
  std::size_t mismatches = 0;
  for (int i = 0; i < 50000; ++i) {
    const auto segs = random_segments(rng);
    const auto [it, fresh] = oracle.emplace(
        key_of(segs), static_cast<PathPool::PathId>(oracle.size()));
    if (fresh) by_id.push_back(segs);
    hits += fresh ? 0 : 1;
    const PathPool::PathId got = intern_some_way(pool, segs, rng());
    mismatches += got == it->second ? 0 : 1;
  }
  EXPECT_EQ(mismatches, 0u);
  ASSERT_EQ(pool.size(), oracle.size());
  for (PathPool::PathId id = 0; id < by_id.size(); ++id) {
    SCOPED_TRACE(testing::Message() << "path id " << id);
    expect_view_matches(pool.get(id), by_id[id]);
  }
  // Enough first sights for several table growths, and enough repeats
  // that the hit path carries the test too.
  EXPECT_GT(oracle.size(), 10000u);
  EXPECT_GT(hits, 10000u);
}

TEST(PathPool, InternFromPoolMatchesIntern) {
  std::mt19937_64 rng(77);
  PathPool src;
  for (int i = 0; i < 5000; ++i) {
    intern_some_way(src, random_segments(rng), rng());
  }
  // Two destinations that already share part of the source's paths: one
  // re-interns by (pool, id), reusing the stored hash, the other interns
  // an owning copy of each path.
  PathPool by_id;
  PathPool by_path;
  for (int i = 0; i < 500; ++i) {
    const auto segs = random_segments(rng);
    by_id.intern(AsPath::from_segments(segs));
    by_path.intern(AsPath::from_segments(segs));
  }
  for (int i = 0; i < 20000; ++i) {
    const auto id = static_cast<PathPool::PathId>(rng() % src.size());
    const auto a = by_id.intern(src, id);
    const auto b = by_path.intern(AsPath(src.get(id)));
    ASSERT_EQ(a, b) << "source id " << id;
    EXPECT_EQ(by_id.get(a), src.get(id));
  }
  EXPECT_EQ(by_id.size(), by_path.size());
  // A pool re-interning its own paths finds every one of them.
  const std::size_t n = src.size();
  for (PathPool::PathId id = 0; id < n; ++id) {
    EXPECT_EQ(src.intern(src, id), id);
  }
  EXPECT_EQ(src.size(), n);
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
