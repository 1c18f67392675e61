// Tests for formation-distance analysis, including the paper's §3.4.2
// worked example about prepending-aware split points.
#include <gtest/gtest.h>

#include "core/formation.h"
#include "testutil.h"

namespace bgpatoms::core {
namespace {

using test::DatasetBuilder;

net::AsPath path(const char* text) { return *net::AsPath::parse(text); }

TEST(SplitPoint, OriginDifferenceIsOne) {
  // Wire order: origin last. Origins 1 vs 2 differ at unique-hop 1.
  EXPECT_EQ(split_point(path("9 5 1"), path("9 5 2"), PrependMethod::kRunAware),
            1);
}

TEST(SplitPoint, SecondHopDifferenceIsTwo) {
  EXPECT_EQ(split_point(path("9 5 1"), path("9 6 1"), PrependMethod::kRunAware),
            2);
}

TEST(SplitPoint, ThirdHopDifferenceIsThree) {
  EXPECT_EQ(
      split_point(path("9 5 3 1"), path("9 6 3 1"), PrependMethod::kRunAware),
      3);
}

TEST(SplitPoint, EmptyPathForcesOne) {
  EXPECT_EQ(split_point(net::AsPath(), path("9 1"), PrependMethod::kRunAware),
            1);
  EXPECT_EQ(split_point(path("9 1"), net::AsPath(), PrependMethod::kRunAware),
            1);
}

TEST(SplitPoint, IdenticalPathsNeverSplit) {
  EXPECT_EQ(split_point(path("9 5 1"), path("9 5 1"),
                        PrependMethod::kRunAware),
            INT32_MAX);
}

TEST(SplitPoint, PaperExampleMethodIiiKeepsPrependDistinguishable) {
  // §3.4.2: paths (AS1,AS2,AS3) vs (AS1,AS2,AS2,AS3) — written here in wire
  // order with AS3 the origin... the example is origin-first: (AS1 AS2 AS3)
  // means AS1 is the origin. In wire order: "3 2 1" vs "3 2 2 1".
  const auto a = path("3 2 1");
  const auto b = path("3 2 2 1");
  // Method (iii): the prepend-count mismatch at AS2 splits at distance 2.
  EXPECT_EQ(split_point(a, b, PrependMethod::kRunAware), 2);
  // Method (ii): stripping first makes them indistinguishable — the flaw
  // the paper calls out.
  EXPECT_EQ(split_point(a, b, PrependMethod::kStripAfterGrouping), INT32_MAX);
}

TEST(SplitPoint, OriginPrependSplitsAtOne) {
  // "1 1 1" vs "1": origin prepending is origin policy -> distance 1.
  EXPECT_EQ(split_point(path("9 1 1 1"), path("9 1"),
                        PrependMethod::kRunAware),
            1);
}

TEST(SplitPoint, PrefixPathSplitsAfterCommonPart) {
  // One path continues beyond the other: split right after the shared part.
  EXPECT_EQ(split_point(path("5 1"), path("9 5 1"), PrependMethod::kRunAware),
            3);
}

TEST(SplitPoint, Symmetric) {
  const auto a = path("9 5 3 1");
  const auto b = path("9 6 2 1");
  for (auto m : {PrependMethod::kRunAware, PrependMethod::kStripAfterGrouping}) {
    EXPECT_EQ(split_point(a, b, m), split_point(b, a, m));
  }
}

TEST(SplitPoint, AsnMismatchBeforeCountMismatch) {
  // Counts differ at origin AND ASNs differ at hop 2: hop-by-hop scan
  // reports the first difference of either kind — the origin's prepending.
  EXPECT_EQ(split_point(path("9 5 1 1"), path("9 6 1"),
                        PrependMethod::kRunAware),
            1);
}

TEST(SplitPoint, PrependCountsBeyond16BitsStayDistinct) {
  // 70,000 and 4,464 prepends of the origin differ by exactly 2^16: a
  // 16-bit run count would wrap and make the two paths indistinguishable.
  std::vector<net::Asn> many(70000, 1);
  std::vector<net::Asn> few(70000 - 65536, 1);
  many.insert(many.begin(), 9);
  few.insert(few.begin(), 9);
  const auto a = net::AsPath::sequence(many);
  const auto b = net::AsPath::sequence(few);
  ASSERT_EQ(a.runs_from_origin().front().count, 70000u);
  EXPECT_EQ(split_point(a, b, PrependMethod::kRunAware), 1);
  EXPECT_EQ(split_point(a, b, PrependMethod::kStripAfterGrouping), INT32_MAX);
}

// ---------------------------------------------------------------------------
// Whole-analysis tests on crafted atom sets.
// ---------------------------------------------------------------------------

struct Analysis {
  bgp::Dataset ds;
  SanitizedSnapshot snap;
  AtomSet atoms;
  FormationResult result;
};

Analysis analyze(DatasetBuilder& b,
                 PrependMethod method = PrependMethod::kRunAware) {
  Analysis a{std::move(b.dataset()), {}, {}, {}};
  a.snap = sanitize(a.ds, 0, test::lax_config());
  a.atoms = compute_atoms(a.snap);
  a.result = formation_distance(a.atoms, method);
  return a;
}

TEST(Formation, SingleAtomOriginIsDistanceOne) {
  DatasetBuilder b;
  b.peer(100).route("10.0.0.0/16", "100 1").route("10.1.0.0/16", "100 1");
  const auto a = analyze(b);
  ASSERT_EQ(a.result.distance.size(), 1u);
  EXPECT_EQ(a.result.distance[0], 1);
  EXPECT_EQ(a.result.cause[0], DistanceOneCause::kOnlyAtomOfOrigin);
  EXPECT_EQ(a.result.first_split_at[1], 1u);
  EXPECT_EQ(a.result.all_split_at[1], 1u);
}

TEST(Formation, SelectiveAnnounceFormsAtDistanceTwo) {
  // Two atoms of origin 1: reached via 5 vs via 6 at the same peer.
  DatasetBuilder b;
  b.peer(100).route("10.0.0.0/16", "100 5 1").route("10.1.0.0/16", "100 6 1");
  const auto a = analyze(b);
  ASSERT_EQ(a.atoms.atoms.size(), 2u);
  EXPECT_EQ(a.result.distance[0], 2);
  EXPECT_EQ(a.result.distance[1], 2);
  EXPECT_EQ(a.result.atoms_at_distance[2], 2u);
}

TEST(Formation, TransitSplitFormsAtDistanceThree) {
  DatasetBuilder b;
  b.peer(100)
      .route("10.0.0.0/16", "100 7 5 1")
      .route("10.1.0.0/16", "100 8 5 1");
  const auto a = analyze(b);
  EXPECT_EQ(a.result.atoms_at_distance[3], 2u);
}

TEST(Formation, MaxOverSiblingsDeterminesDistance) {
  // Three atoms: A vs B differ at 2; A vs C differ at 3; B vs C differ at 2.
  // d(A) = max(2,3) = 3, d(B) = 2, d(C) = 3.
  DatasetBuilder b;
  b.peer(100)
      .route("10.0.0.0/16", "100 7 5 1")    // A
      .route("10.1.0.0/16", "100 7 6 1")    // B
      .route("10.2.0.0/16", "100 8 5 1");   // C
  const auto a = analyze(b);
  ASSERT_EQ(a.atoms.atoms.size(), 3u);
  // Identify atoms by their prefix.
  auto dist_of = [&](const char* prefix) {
    const auto id = a.ds.prefixes.find(*net::Prefix::parse(prefix));
    return a.result.distance[a.atoms.atom_of.at(id)];
  };
  EXPECT_EQ(dist_of("10.0.0.0/16"), 3);
  EXPECT_EQ(dist_of("10.1.0.0/16"), 2);
  EXPECT_EQ(dist_of("10.2.0.0/16"), 3);
  // Per-AS first/last split: d_min = 2, d_max = 3.
  EXPECT_EQ(a.result.first_split_at[2], 1u);
  EXPECT_EQ(a.result.all_split_at[3], 1u);
}

TEST(Formation, VisibilityCauseClassified) {
  // Atom B invisible at peer 200: unique-peer-set distance 1.
  DatasetBuilder b;
  b.peer(100).route("10.0.0.0/16", "100 1").route("10.1.0.0/16", "100 1");
  b.peer(200).route("10.0.0.0/16", "200 1");
  const auto a = analyze(b);
  ASSERT_EQ(a.atoms.atoms.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(a.result.distance[i], 1);
    EXPECT_EQ(a.result.cause[i], DistanceOneCause::kUniquePeerSet);
  }
  EXPECT_DOUBLE_EQ(a.result.cause_share(DistanceOneCause::kUniquePeerSet),
                   1.0);
}

TEST(Formation, PrependCauseClassified) {
  DatasetBuilder b;
  b.peer(100).route("10.0.0.0/16", "100 1").route("10.1.0.0/16", "100 1 1");
  const auto a = analyze(b);
  ASSERT_EQ(a.atoms.atoms.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(a.result.distance[i], 1);
    EXPECT_EQ(a.result.cause[i], DistanceOneCause::kPrepending);
  }
}

TEST(Formation, MethodIiMergesPrependOnlyAtoms) {
  // Under method (ii) the prepend-only pair is indistinguishable: both
  // atoms exist (grouping is raw) but report distance 1 with no split.
  DatasetBuilder b;
  b.peer(100).route("10.0.0.0/16", "100 1").route("10.1.0.0/16", "100 1 1");
  const auto a = analyze(b, PrependMethod::kStripAfterGrouping);
  ASSERT_EQ(a.atoms.atoms.size(), 2u);
  EXPECT_EQ(a.result.distance[0], 1);
  EXPECT_EQ(a.result.distance[1], 1);
}

TEST(Formation, MultiHistogramExcludesSingleAtomOrigins) {
  DatasetBuilder b;
  b.peer(100)
      .route("10.0.0.0/16", "100 1")       // origin 1: single atom
      .route("10.1.0.0/16", "100 5 2")     // origin 2: two atoms at d2
      .route("10.2.0.0/16", "100 6 2");
  const auto a = analyze(b);
  EXPECT_EQ(a.result.total_atoms, 3u);
  EXPECT_EQ(a.result.total_multi_atoms, 2u);
  EXPECT_EQ(a.result.atoms_at_distance[1], 1u);
  EXPECT_EQ(a.result.atoms_at_distance_multi[1], 0u);
  EXPECT_EQ(a.result.atoms_at_distance_multi[2], 2u);
  EXPECT_DOUBLE_EQ(a.result.share_at_multi(2), 1.0);
}

TEST(Formation, CumulativeShare) {
  DatasetBuilder b;
  b.peer(100)
      .route("10.0.0.0/16", "100 1")
      .route("10.1.0.0/16", "100 5 2")
      .route("10.2.0.0/16", "100 6 2");
  const auto a = analyze(b);
  EXPECT_NEAR(a.result.cumulative_share(1), 1.0 / 3, 1e-9);
  EXPECT_NEAR(a.result.cumulative_share(2), 1.0, 1e-9);
  EXPECT_NEAR(a.result.share_at(1) + a.result.share_at(2), 1.0, 1e-9);
}

TEST(Formation, MinOverPeersWins) {
  // Peer 100 sees a difference at 3, peer 200 at 2: overall split is 2.
  DatasetBuilder b;
  b.peer(100)
      .route("10.0.0.0/16", "100 7 5 1")
      .route("10.1.0.0/16", "100 8 5 1");
  b.peer(200)
      .route("10.0.0.0/16", "200 5 1")
      .route("10.1.0.0/16", "200 6 1");
  const auto a = analyze(b);
  EXPECT_EQ(a.result.atoms_at_distance[2], 2u);
  EXPECT_EQ(a.result.atoms_at_distance[3], 0u);
}

TEST(Formation, PrependingDoesNotInflateDistance) {
  // Transit prepending ("5 5 5") must not push the split point beyond the
  // unique-AS hop index — the whole point of method (iii).
  DatasetBuilder b;
  b.peer(100)
      .route("10.0.0.0/16", "100 7 5 5 5 1")
      .route("10.1.0.0/16", "100 8 5 5 5 1");
  const auto a = analyze(b);
  // Unique hops from origin: 1(origin) 5(transit) then 7/8 differ -> 3.
  EXPECT_EQ(a.result.atoms_at_distance[3], 2u);
}

}  // namespace
}  // namespace bgpatoms::core
