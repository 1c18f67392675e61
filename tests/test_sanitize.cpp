// Tests for the §2.4 sanitization pipeline on hand-built dirty datasets.
#include <gtest/gtest.h>

#include "core/sanitize.h"
#include "obs/obs.h"
#include "testutil.h"

namespace bgpatoms::core {
namespace {

using test::DatasetBuilder;

TEST(Sanitize, FullFeedInference) {
  DatasetBuilder b;
  b.collector("rrc00");
  // Peer 1: 20 prefixes (the max). Peer 2: 19 (95% >= 90%: kept). Peer 3:
  // 9 (45%: cut). The rule is "at least 90% of the maximum count" (§2.4).
  b.peer(100);
  for (int i = 0; i < 20; ++i) {
    b.route("10." + std::to_string(i) + ".0.0/16", "100 50");
  }
  b.peer(200);
  for (int i = 0; i < 19; ++i) {
    b.route("10." + std::to_string(i) + ".0.0/16", "200 50");
  }
  b.peer(300);
  for (int i = 0; i < 9; ++i) {
    b.route("10." + std::to_string(i) + ".0.0/16", "300 50");
  }

  SanitizeConfig config;
  config.min_collectors = 1;
  config.min_peer_ases = 1;
  const auto snap = sanitize(b.dataset(), 0, config);
  EXPECT_EQ(snap.report.max_unique_prefixes, 20u);
  EXPECT_EQ(snap.report.full_feed_peers, 2u);
  ASSERT_EQ(snap.report.removed_peers.size(), 1u);
  EXPECT_EQ(snap.report.removed_peers[0].peer.asn, 300u);
  EXPECT_EQ(snap.report.removed_peers[0].reason,
            PeerRemovalReason::kPartialFeed);
}

TEST(Sanitize, ExactlyNinetyPercentIsFullFeed) {
  // Boundary regression (§2.4): 0.9 × 10 = 9 exactly, and a peer carrying
  // exactly the threshold count qualifies — the rule is >=, not >. A peer
  // one prefix short does not.
  DatasetBuilder b;
  b.peer(100);
  for (int i = 0; i < 10; ++i) {
    b.route("10." + std::to_string(i) + ".0.0/16", "100 50");
  }
  b.peer(200);
  for (int i = 0; i < 9; ++i) {
    b.route("10." + std::to_string(i) + ".0.0/16", "200 50");
  }
  b.peer(300);
  for (int i = 0; i < 8; ++i) {
    b.route("10." + std::to_string(i) + ".0.0/16", "300 50");
  }
  SanitizeConfig config;
  config.min_collectors = 1;
  config.min_peer_ases = 1;
  const auto snap = sanitize(b.dataset(), 0, config);
  EXPECT_EQ(snap.report.full_feed_peers, 2u);
  ASSERT_EQ(snap.report.removed_peers.size(), 1u);
  EXPECT_EQ(snap.report.removed_peers[0].peer.asn, 300u);
}

TEST(Sanitize, BinaryEpsilonAtTheFullFeedBoundary) {
  // 0.8 has no exact binary representation: 0.8 * 35 computes to
  // 28.000000000000004, so a bare ceil() would demand 29 prefixes and
  // silently drop a peer sitting exactly at 80%. The threshold is
  // computed as ceil(fraction * max - 1e-9) to keep the >= rule exact
  // under that representation error; this pins it.
  DatasetBuilder b;
  b.peer(100);
  for (int i = 0; i < 35; ++i) {
    b.route("10." + std::to_string(i) + ".0.0/16", "100 50");
  }
  b.peer(200);  // exactly 28 of 35 = 80%: must qualify
  for (int i = 0; i < 28; ++i) {
    b.route("10." + std::to_string(i) + ".0.0/16", "200 50");
  }
  b.peer(300);  // 27 of 35: one short, must not
  for (int i = 0; i < 27; ++i) {
    b.route("10." + std::to_string(i) + ".0.0/16", "300 50");
  }
  SanitizeConfig config;
  config.min_collectors = 1;
  config.min_peer_ases = 1;
  config.full_feed_fraction = 0.8;
  const auto snap = sanitize(b.dataset(), 0, config);
  EXPECT_EQ(snap.report.full_feed_peers, 2u);
  ASSERT_EQ(snap.report.removed_peers.size(), 1u);
  EXPECT_EQ(snap.report.removed_peers[0].peer.asn, 300u);
}

TEST(Sanitize, FullFeedThresholdConfigurable) {
  DatasetBuilder b;
  b.peer(100);
  for (int i = 0; i < 10; ++i) {
    b.route("10." + std::to_string(i) + ".0.0/16", "100 50");
  }
  b.peer(200);
  for (int i = 0; i < 5; ++i) {
    b.route("10." + std::to_string(i) + ".0.0/16", "200 50");
  }
  SanitizeConfig config;
  config.min_collectors = 1;
  config.min_peer_ases = 1;
  config.full_feed_fraction = 0.4;  // 5/10 > 40%: both kept
  EXPECT_EQ(sanitize(b.dataset(), 0, config).report.full_feed_peers, 2u);
}

TEST(Sanitize, AddPathBrokenPeerRemoved) {
  DatasetBuilder b;
  b.peer(100);
  for (int i = 0; i < 20; ++i) {
    b.route("10." + std::to_string(i) + ".0.0/16", "100 50");
  }
  b.peer(666);
  for (int i = 0; i < 20; ++i) {
    b.route("10." + std::to_string(i) + ".0.0/16", "666 50",
            i % 5 == 0 ? bgp::RecordStatus::kCorruptSubtype
                       : bgp::RecordStatus::kValid);
  }
  const auto snap = sanitize(b.dataset(), 0, test::lax_config_with_abnormal());
  ASSERT_EQ(snap.report.removed_peers.size(), 1u);
  EXPECT_EQ(snap.report.removed_peers[0].peer.asn, 666u);
  EXPECT_EQ(snap.report.removed_peers[0].reason,
            PeerRemovalReason::kAddPathArtifacts);
}

TEST(Sanitize, PrivateAsnInjectorRemoved) {
  DatasetBuilder b;
  b.peer(100);
  for (int i = 0; i < 10; ++i) {
    b.route("10." + std::to_string(i) + ".0.0/16", "100 50");
  }
  b.peer(25885);  // the paper's misconfigured peer
  for (int i = 0; i < 10; ++i) {
    b.route("10." + std::to_string(i) + ".0.0/16",
            i < 6 ? "25885 65000 50" : "25885 50");
  }
  const auto snap = sanitize(b.dataset(), 0, test::lax_config_with_abnormal());
  ASSERT_EQ(snap.report.removed_peers.size(), 1u);
  EXPECT_EQ(snap.report.removed_peers[0].peer.asn, 25885u);
  EXPECT_EQ(snap.report.removed_peers[0].reason,
            PeerRemovalReason::kPrivateAsnInjection);
  EXPECT_NEAR(snap.report.removed_peers[0].artifact_share, 0.6, 0.01);
}

TEST(Sanitize, OwnPrivateAsnHeadDoesNotTriggerRemoval) {
  // A private peer ASN in the FIRST hop is the peer itself (common for
  // route servers); only bogons deeper in the path signal injection.
  DatasetBuilder b;
  b.peer(65000);
  for (int i = 0; i < 10; ++i) {
    b.route("10." + std::to_string(i) + ".0.0/16", "65000 50");
  }
  const auto snap = sanitize(b.dataset(), 0, test::lax_config_with_abnormal());
  EXPECT_TRUE(snap.report.removed_peers.empty());
}

TEST(Sanitize, DuplicateEmitterRemoved) {
  DatasetBuilder b;
  b.peer(100);
  for (int i = 0; i < 10; ++i) {
    b.route("10." + std::to_string(i) + ".0.0/16", "100 50");
  }
  b.peer(200);
  for (int i = 0; i < 10; ++i) {
    b.route("10." + std::to_string(i) + ".0.0/16", "200 50");
    if (i < 2) b.route("10." + std::to_string(i) + ".0.0/16", "200 50");
  }
  const auto snap = sanitize(b.dataset(), 0, test::lax_config_with_abnormal());
  ASSERT_EQ(snap.report.removed_peers.size(), 1u);
  EXPECT_EQ(snap.report.removed_peers[0].peer.asn, 200u);
  EXPECT_EQ(snap.report.removed_peers[0].reason,
            PeerRemovalReason::kExcessiveDuplicates);
}

TEST(Sanitize, VisibilityFilterCollectors) {
  DatasetBuilder b;
  b.collector("rrc00").collector("rrc01");
  // Prefix A seen at both collectors (4 peer ASes), prefix B only at one.
  for (int coll = 0; coll < 2; ++coll) {
    for (int p = 0; p < 2; ++p) {
      b.peer(100 + coll * 10 + p, static_cast<std::uint16_t>(coll));
      b.route("10.0.0.0/16", "1 50");
      if (coll == 0) b.route("10.1.0.0/16", "1 50");
    }
  }
  SanitizeConfig config;
  config.min_collectors = 2;
  config.min_peer_ases = 4;
  config.full_feed_only = false;  // isolate the visibility filter
  const auto snap = sanitize(b.dataset(), 0, config);
  EXPECT_EQ(snap.report.prefixes_kept, 1u);
  EXPECT_EQ(snap.report.prefixes_dropped_visibility, 1u);
  ASSERT_EQ(snap.prefixes.size(), 1u);
  EXPECT_EQ(snap.prefix(snap.prefixes[0]), *net::Prefix::parse("10.0.0.0/16"));
}

TEST(Sanitize, VisibilityFilterPeerAses) {
  DatasetBuilder b;
  b.collector("rrc00").collector("rrc01");
  // Prefix seen at 2 collectors but only 3 distinct peer ASes.
  b.peer(100, 0).route("10.0.0.0/16", "1 50");
  b.peer(200, 1).route("10.0.0.0/16", "1 50");
  b.peer(300, 0).route("10.0.0.0/16", "1 50");
  SanitizeConfig config;
  config.min_collectors = 2;
  config.min_peer_ases = 4;
  config.full_feed_only = false;
  const auto snap = sanitize(b.dataset(), 0, config);
  EXPECT_EQ(snap.report.prefixes_kept, 0u);
}

TEST(Sanitize, LengthFilterPerFamily) {
  DatasetBuilder b4(net::Family::kIPv4);
  b4.peer(100).route("10.0.0.0/24", "1 50").route("10.1.0.0/25", "1 50");
  auto snap = sanitize(b4.dataset(), 0, test::lax_config());
  EXPECT_EQ(snap.report.prefixes_dropped_length, 1u);
  EXPECT_EQ(snap.report.prefixes_kept, 1u);

  DatasetBuilder b6(net::Family::kIPv6);
  b6.peer(100)
      .route("2001:db8::/48", "1 50")
      .route("2001:db9::/49", "1 50");
  snap = sanitize(b6.dataset(), 0, test::lax_config());
  EXPECT_EQ(snap.report.prefixes_dropped_length, 1u);
}

TEST(Sanitize, LengthFilterDisabled) {
  DatasetBuilder b;
  b.peer(100).route("10.0.0.0/28", "1 50");
  auto config = test::lax_config();
  config.max_prefix_length = 128;  // the 2002 reproduction setting (§3.1.3)
  const auto snap = sanitize(b.dataset(), 0, config);
  EXPECT_EQ(snap.report.prefixes_kept, 1u);
}

TEST(Sanitize, SingletonAsSetExpanded) {
  DatasetBuilder b;
  b.peer(100).route("10.0.0.0/16", "100 2 [3]");
  const auto snap = sanitize(b.dataset(), 0, test::lax_config());
  EXPECT_EQ(snap.report.asset_paths_expanded, 1u);
  ASSERT_EQ(snap.vps.size(), 1u);
  ASSERT_EQ(snap.vps[0].routes.size(), 1u);
  const auto& path = snap.paths.get(snap.vps[0].routes[0].second);
  EXPECT_FALSE(path.has_set());
  EXPECT_EQ(path, net::AsPath::sequence({100, 2, 3}));
}

TEST(Sanitize, MultiMemberAsSetDropped) {
  DatasetBuilder b;
  b.peer(100)
      .route("10.0.0.0/16", "100 2 [3 4]")
      .route("10.1.0.0/16", "100 2 5");
  const auto snap = sanitize(b.dataset(), 0, test::lax_config());
  EXPECT_EQ(snap.report.records_dropped_asset, 1u);
  EXPECT_EQ(snap.vps[0].routes.size(), 1u);
}

TEST(Sanitize, CorruptRecordsDropped) {
  DatasetBuilder b;
  b.peer(100)
      .route("10.0.0.0/16", "100 50", bgp::RecordStatus::kInvalidNlri)
      .route("10.1.0.0/16", "100 50");
  const auto snap = sanitize(b.dataset(), 0, test::lax_config());
  EXPECT_EQ(snap.report.records_dropped_corrupt, 1u);
  EXPECT_EQ(snap.vps[0].routes.size(), 1u);
}

TEST(Sanitize, DuplicateRecordsCollapse) {
  DatasetBuilder b;
  b.peer(100)
      .route("10.0.0.0/16", "100 50")
      .route("10.0.0.0/16", "100 50")
      .route("10.0.0.0/16", "100 60 50");
  const auto snap = sanitize(b.dataset(), 0, test::lax_config());
  ASSERT_EQ(snap.vps[0].routes.size(), 1u);
}

TEST(Sanitize, MoasCountedNotRemoved) {
  DatasetBuilder b;
  b.peer(100).route("10.0.0.0/16", "100 1");
  b.peer(200).route("10.0.0.0/16", "200 2");  // different origin
  const auto snap = sanitize(b.dataset(), 0, test::lax_config());
  EXPECT_EQ(snap.report.moas_prefixes, 1u);
  EXPECT_EQ(snap.report.prefixes_kept, 1u);  // kept, per §2.4.3
}

TEST(Sanitize, PathForLookup) {
  DatasetBuilder b;
  b.peer(100).route("10.0.0.0/16", "100 1").route("10.2.0.0/16", "100 2");
  const auto snap = sanitize(b.dataset(), 0, test::lax_config());
  const auto& table = snap.vps[0];
  const auto present = snap.prefixes[0];
  EXPECT_NE(table.path_for(present), net::PathPool::kEmptyPathId);
  EXPECT_EQ(table.path_for(9999), net::PathPool::kEmptyPathId);
}

TEST(Sanitize, ReasonStrings) {
  EXPECT_STREQ(to_string(PeerRemovalReason::kAddPathArtifacts),
               "ADD-PATH artifacts");
  EXPECT_STREQ(to_string(PeerRemovalReason::kPartialFeed), "partial feed");
}

#if BGPATOMS_OBS_ENABLED
TEST(Sanitize, PathsCleanedCounterIsDeterministic) {
  // Five distinct source paths reach record cleaning: "100 50" (carried
  // by both peers), "100 [50]", "100 [50 60]", "200 50" (twice) and
  // "200 60". The ADD-PATH artifact's path is never inspected.
  DatasetBuilder b;
  b.peer(100)
      .route("10.0.0.0/16", "100 50")
      .route("10.1.0.0/16", "100 50")
      .route("10.2.0.0/16", "100 [50]")
      .route("10.3.0.0/16", "100 [50 60]");
  b.peer(200)
      .route("10.0.0.0/16", "200 50")
      .route("10.1.0.0/16", "100 50")
      .route("10.2.0.0/16", "200 50")
      .route("10.3.0.0/16", "200 60")
      .route("10.4.0.0/16", "200 70", bgp::RecordStatus::kCorruptSubtype);
  const SanitizeConfig config = test::lax_config();
  auto& registry = obs::registry();
  auto& cleaned = registry.counter("sanitize.paths_cleaned");
  const auto run = [&] {
    registry.reset_values();
    const auto snap = sanitize(b.dataset(), 0, config);
    EXPECT_EQ(snap.vps.size(), 2u);
    return cleaned.value();
  };
  const std::uint64_t first = run();
  EXPECT_EQ(first, 5u);
  EXPECT_EQ(run(), first);
}
#endif

}  // namespace
}  // namespace bgpatoms::core
