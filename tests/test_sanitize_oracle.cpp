// Independent oracle for core::sanitize. The reference below is the
// hash-container implementation the dense-array sanitize replaced: it
// interns every record's path, keeps per-peer seen-sets, a visibility map
// of collector/peer-AS sets per prefix and an origin map for MOAS. The
// production sanitize must reproduce it exactly — path pool in id order,
// every VpTable, the retained prefixes and every SanitizeReport field —
// on campaign snapshots with fault-injecting VPs (ADD-PATH garbage, a
// private-ASN injector, duplicate emitters, partial feeds), on AS_SET-
// bearing paths, and through both DatasetView and ArchiveView.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bgp/archive.h"
#include "bgp/archive_view.h"
#include "bgp/views.h"
#include "core/sanitize.h"
#include "net/asn.h"
#include "net/rng.h"
#include "routing/simulator.h"
#include "topo/era.h"
#include "topo/topology.h"
#include "testutil.h"

namespace bgpatoms::core {
namespace {

// --- reference implementation ---------------------------------------------

struct PeerScan {
  std::size_t records = 0;
  std::size_t corrupt = 0;
  std::size_t duplicates = 0;
  std::size_t bogon_paths = 0;
  std::size_t unique_prefixes = 0;
};

PeerScan reference_scan_peer(const net::PathPool& paths,
                             const bgp::PeerFeed& feed) {
  PeerScan s;
  s.records = feed.records.size();
  std::unordered_set<bgp::PrefixId> seen;
  seen.reserve(feed.records.size());
  for (const auto& rec : feed.records) {
    if (bgp::is_addpath_artifact(rec.status)) ++s.corrupt;
    if (!seen.insert(rec.prefix).second) ++s.duplicates;
    const auto& path = paths.get(rec.path);
    // The peer's own leading hop may legitimately repeat; a bogon anywhere
    // *behind* the first hop signals injection (the AS65000 case).
    const auto hops = path.flat();
    for (std::size_t i = 1; i < hops.size(); ++i) {
      if (net::is_bogon_asn(hops[i])) {
        ++s.bogon_paths;
        break;
      }
    }
  }
  s.unique_prefixes = seen.size();
  return s;
}

SanitizedSnapshot reference_sanitize(const bgp::SnapshotView& src,
                                     const bgp::Snapshot& snap,
                                     const SanitizeConfig& config) {
  SanitizedSnapshot out;
  out.prefix_pool = &src.prefixes();
  out.timestamp = snap.timestamp;
  auto& rep = out.report;
  rep.peers_in = snap.peers.size();

  const int max_len =
      config.max_prefix_length > 0
          ? config.max_prefix_length
          : (src.family() == net::Family::kIPv4 ? 24 : 48);

  // --- pass 1: per-peer statistics & abnormal-peer removal ---------------
  // `kept_index[i]` remembers where kept[i] sat in snap.peers — the peer
  // namespace update records use (VpTable::source_index).
  std::vector<const bgp::PeerFeed*> kept;
  std::vector<std::uint32_t> kept_index;
  std::vector<PeerScan> scans;
  for (std::uint32_t raw = 0; raw < snap.peers.size(); ++raw) {
    const auto& feed = snap.peers[raw];
    const PeerScan s = reference_scan_peer(src.paths(), feed);
    if (config.remove_abnormal_peers && s.records > 0) {
      const double corrupt_share =
          static_cast<double>(s.corrupt) / static_cast<double>(s.records);
      const double dup_share =
          static_cast<double>(s.duplicates) / static_cast<double>(s.records);
      const double bogon_share =
          static_cast<double>(s.bogon_paths) / static_cast<double>(s.records);
      if (corrupt_share > config.addpath_artifact_threshold) {
        rep.removed_peers.push_back(
            {feed.peer, PeerRemovalReason::kAddPathArtifacts, corrupt_share});
        continue;
      }
      if (bogon_share > config.private_asn_threshold) {
        rep.removed_peers.push_back(
            {feed.peer, PeerRemovalReason::kPrivateAsnInjection, bogon_share});
        continue;
      }
      if (dup_share > config.duplicate_threshold) {
        rep.removed_peers.push_back(
            {feed.peer, PeerRemovalReason::kExcessiveDuplicates, dup_share});
        continue;
      }
    }
    kept.push_back(&feed);
    kept_index.push_back(raw);
    scans.push_back(s);
  }

  // --- pass 2: full-feed inference ----------------------------------------
  std::size_t max_unique = 0;
  for (const auto& s : scans) max_unique = std::max(max_unique, s.unique_prefixes);
  rep.max_unique_prefixes = max_unique;
  // §2.4 rule: full-feed means carrying >= full_feed_fraction of the
  // maximum unique-prefix count. The threshold is the smallest integer
  // count satisfying that (ceil, with an epsilon absorbing the fraction's
  // binary representation error) — a plain floor cast plus a strict
  // comparison would exclude a peer sitting exactly on the boundary.
  const auto full_feed_min = static_cast<std::size_t>(
      std::ceil(config.full_feed_fraction * static_cast<double>(max_unique) -
                1e-9));
  if (config.full_feed_only) {
    std::vector<const bgp::PeerFeed*> full;
    std::vector<std::uint32_t> full_index;
    std::vector<PeerScan> full_scans;
    for (std::size_t i = 0; i < kept.size(); ++i) {
      if (scans[i].unique_prefixes >= full_feed_min) {
        full.push_back(kept[i]);
        full_index.push_back(kept_index[i]);
        full_scans.push_back(scans[i]);
      } else {
        rep.removed_peers.push_back(
            {kept[i]->peer, PeerRemovalReason::kPartialFeed,
             max_unique == 0
                 ? 0.0
                 : static_cast<double>(scans[i].unique_prefixes) /
                       static_cast<double>(max_unique)});
      }
    }
    kept = std::move(full);
    kept_index = std::move(full_index);
    scans = std::move(full_scans);
  }
  rep.full_feed_peers = kept.size();

  // --- pass 3: record cleaning into per-VP tables -------------------------
  out.vps.reserve(kept.size());
  for (std::size_t k = 0; k < kept.size(); ++k) {
    const auto* feedp = kept[k];
    VpTable table;
    table.peer = feedp->peer;
    table.source_index = kept_index[k];
    table.routes.reserve(feedp->records.size());
    for (const auto& rec : feedp->records) {
      if (bgp::is_addpath_artifact(rec.status)) {
        ++rep.records_dropped_corrupt;
        continue;
      }
      const auto& raw = src.paths().get(rec.path);
      bgp::PathId pid;
      if (raw.has_set()) {
        if (!raw.sets_all_singleton()) {
          ++rep.records_dropped_asset;
          continue;
        }
        pid = out.paths.intern(raw.with_singleton_sets_expanded());
        ++rep.asset_paths_expanded;
      } else {
        pid = out.paths.intern(raw);
      }
      table.routes.emplace_back(rec.prefix, pid);
    }
    std::sort(table.routes.begin(), table.routes.end());
    // Deduplicate (first wins; exact duplicates collapse silently).
    table.routes.erase(
        std::unique(table.routes.begin(), table.routes.end(),
                    [](const auto& a, const auto& b) {
                      return a.first == b.first;
                    }),
        table.routes.end());
    out.vps.push_back(std::move(table));
  }

  // --- pass 4: prefix filtering -------------------------------------------
  struct Visibility {
    std::unordered_set<std::uint16_t> collectors;
    std::unordered_set<net::Asn> peer_ases;
  };
  std::unordered_map<bgp::PrefixId, Visibility> vis;
  for (const auto& table : out.vps) {
    for (const auto& [prefix, path] : table.routes) {
      auto& v = vis[prefix];
      v.collectors.insert(table.peer.collector);
      v.peer_ases.insert(table.peer.asn);
    }
  }
  rep.prefixes_in = vis.size();

  std::unordered_set<bgp::PrefixId> keep_prefixes;
  keep_prefixes.reserve(vis.size());
  for (const auto& [prefix, v] : vis) {
    if (src.prefixes().get(prefix).length() > max_len) {
      ++rep.prefixes_dropped_length;
      continue;
    }
    if (config.filter_prefixes &&
        (v.collectors.size() < static_cast<std::size_t>(config.min_collectors) ||
         v.peer_ases.size() < static_cast<std::size_t>(config.min_peer_ases))) {
      ++rep.prefixes_dropped_visibility;
      continue;
    }
    keep_prefixes.insert(prefix);
  }
  rep.prefixes_kept = keep_prefixes.size();

  for (auto& table : out.vps) {
    std::erase_if(table.routes, [&](const auto& entry) {
      return !keep_prefixes.contains(entry.first);
    });
  }
  out.prefixes.assign(keep_prefixes.begin(), keep_prefixes.end());
  std::sort(out.prefixes.begin(), out.prefixes.end());

  // --- MOAS accounting (not removed; §2.4.3) ------------------------------
  std::unordered_map<bgp::PrefixId, net::Asn> first_origin;
  std::unordered_set<bgp::PrefixId> moas;
  for (const auto& table : out.vps) {
    for (const auto& [prefix, path] : table.routes) {
      const auto origin = out.paths.get(path).origin();
      if (!origin) continue;
      const auto [it, fresh] = first_origin.emplace(prefix, *origin);
      if (!fresh && it->second != *origin) moas.insert(prefix);
    }
  }
  rep.moas_prefixes = moas.size();

  return out;
}

// --- equality ---------------------------------------------------------------

void expect_snapshot_eq(const SanitizedSnapshot& want,
                        const SanitizedSnapshot& got, const std::string& what) {
  EXPECT_EQ(want.prefix_pool, got.prefix_pool) << what;
  EXPECT_EQ(want.timestamp, got.timestamp) << what;
  ASSERT_EQ(want.paths.size(), got.paths.size()) << what;
  for (bgp::PathId id = 0; id < want.paths.size(); ++id) {
    ASSERT_EQ(want.paths.get(id), got.paths.get(id)) << what << " path " << id;
  }
  ASSERT_EQ(want.vps.size(), got.vps.size()) << what;
  for (std::size_t i = 0; i < want.vps.size(); ++i) {
    EXPECT_EQ(want.vps[i].peer, got.vps[i].peer) << what << " vp " << i;
    EXPECT_EQ(want.vps[i].source_index, got.vps[i].source_index)
        << what << " vp " << i;
    EXPECT_EQ(want.vps[i].routes, got.vps[i].routes) << what << " vp " << i;
  }
  EXPECT_EQ(want.prefixes, got.prefixes) << what;

  const SanitizeReport& a = want.report;
  const SanitizeReport& b = got.report;
  EXPECT_EQ(a.peers_in, b.peers_in) << what;
  EXPECT_EQ(a.full_feed_peers, b.full_feed_peers) << what;
  EXPECT_EQ(a.max_unique_prefixes, b.max_unique_prefixes) << what;
  ASSERT_EQ(a.removed_peers.size(), b.removed_peers.size()) << what;
  for (std::size_t i = 0; i < a.removed_peers.size(); ++i) {
    EXPECT_EQ(a.removed_peers[i].peer, b.removed_peers[i].peer) << what;
    EXPECT_EQ(a.removed_peers[i].reason, b.removed_peers[i].reason) << what;
    EXPECT_EQ(a.removed_peers[i].artifact_share,
              b.removed_peers[i].artifact_share)
        << what;
  }
  EXPECT_EQ(a.prefixes_in, b.prefixes_in) << what;
  EXPECT_EQ(a.prefixes_kept, b.prefixes_kept) << what;
  EXPECT_EQ(a.prefixes_dropped_visibility, b.prefixes_dropped_visibility)
      << what;
  EXPECT_EQ(a.prefixes_dropped_length, b.prefixes_dropped_length) << what;
  EXPECT_EQ(a.records_dropped_corrupt, b.records_dropped_corrupt) << what;
  EXPECT_EQ(a.records_dropped_asset, b.records_dropped_asset) << what;
  EXPECT_EQ(a.asset_paths_expanded, b.asset_paths_expanded) << what;
  EXPECT_EQ(a.moas_prefixes, b.moas_prefixes) << what;
}

/// The configurations each snapshot is sanitized under: the paper's
/// defaults, lax thresholds with and without abnormal-peer removal,
/// filtering off with the length cap lifted, and raised thresholds.
std::vector<std::pair<std::string, SanitizeConfig>> configs() {
  SanitizeConfig unfiltered;
  unfiltered.filter_prefixes = false;
  unfiltered.max_prefix_length = 128;
  unfiltered.full_feed_only = false;
  SanitizeConfig strict;
  strict.min_collectors = 3;
  strict.min_peer_ases = 8;
  strict.full_feed_fraction = 0.95;
  return {{"default", SanitizeConfig{}},
          {"lax", test::lax_config()},
          {"lax+abnormal", test::lax_config_with_abnormal()},
          {"unfiltered", unfiltered},
          {"strict", strict}};
}

/// Tallies what the reference saw, so the tests can require that the
/// inputs really exercise every sanitize rule.
struct Coverage {
  std::unordered_set<int> reasons;
  std::size_t expanded = 0;
  std::size_t dropped_asset = 0;
  std::size_t dropped_corrupt = 0;
  std::size_t moas = 0;
  std::size_t dropped_visibility = 0;

  void add(const SanitizeReport& r) {
    for (const auto& p : r.removed_peers) {
      reasons.insert(static_cast<int>(p.reason));
    }
    expanded += r.asset_paths_expanded;
    dropped_asset += r.records_dropped_asset;
    dropped_corrupt += r.records_dropped_corrupt;
    moas += r.moas_prefixes;
    dropped_visibility += r.prefixes_dropped_visibility;
  }
};

/// Sanitizes every snapshot `view` yields under every config, reference
/// against production.
std::size_t check_view(bgp::SnapshotView& view, const std::string& backend,
                       Coverage& coverage) {
  std::size_t snapshots = 0;
  while (const bgp::Snapshot* snap = view.next_snapshot()) {
    for (const auto& [name, config] : configs()) {
      const SanitizedSnapshot want = reference_sanitize(view, *snap, config);
      const SanitizedSnapshot got = sanitize(view, *snap, config);
      expect_snapshot_eq(want, got,
                         backend + " snapshot " + std::to_string(snapshots) +
                             " " + name);
      coverage.add(want.report);
    }
    ++snapshots;
  }
  return snapshots;
}

/// Temp file that deletes itself.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(testing::TempDir() + name) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// A 2022 capture: three ADD-PATH-broken peers, the private-ASN injector,
/// a duplicate emitter and partial feeds, four snapshots (t0, +8 h,
/// +24 h, +1 w).
const bgp::Dataset& campaign() {
  static const bgp::Dataset ds = [] {
    routing::SimOptions opt;
    opt.seed = 5;
    routing::Simulator sim(
        topo::generate_topology(topo::era_params_v4(2022.0, 0.005), 5), opt);
    sim.capture();
    for (const bgp::Timestamp t :
         {8 * routing::kHour, routing::kDay, routing::kWeek}) {
      sim.advance_to(t);
      sim.capture();
    }
    return sim.take_dataset();
  }();
  return ds;
}

TEST(SanitizeOracle, CampaignSnapshotsMatchThroughBothViews) {
  const bgp::Dataset& ds = campaign();
  Coverage coverage;
  bgp::DatasetView mem(ds);
  EXPECT_EQ(check_view(mem, "dataset", coverage), 4u);

  TempFile file("sanitize_oracle.bga");
  bgp::write_archive_file(ds, file.path());
  bgp::ArchiveView streamed(file.path());
  EXPECT_EQ(check_view(streamed, "archive", coverage), 4u);

  EXPECT_EQ(coverage.reasons.size(), 4u) << "every removal reason fires";
  EXPECT_GT(coverage.dropped_corrupt, 0u);
  EXPECT_GT(coverage.moas, 0u);
  EXPECT_GT(coverage.dropped_visibility, 0u);
}

/// A random dataset over a small ASN/prefix space: AS_SET tails (singleton
/// and multi-member), private ASNs behind the head, ADD-PATH statuses,
/// duplicate records, peers sharing collectors and ASNs, MOAS origins.
bgp::Dataset random_dataset(Rng& rng) {
  std::vector<std::string> prefixes;
  for (int a = 0; a < 8; ++a) {
    const std::string net = "10." + std::to_string(a) + ".";
    for (const char* tail : {"0.0/16", "64.0/18", "0.0/24", "128.0/25"}) {
      prefixes.push_back(net + tail);
    }
  }
  test::DatasetBuilder b;
  b.collector("rrc00").collector("rrc01").collector("rrc02");
  const int peers = static_cast<int>(rng.next_int(1, 12));
  for (int p = 0; p < peers; ++p) {
    const auto peer_asn = static_cast<net::Asn>(100 + rng.next_below(6));
    const bool injector = rng.chance(0.15);
    const bool addpath_broken = rng.chance(0.15);
    const auto asn = [&] {
      return rng.chance(injector ? 0.5 : 0.02)
                 ? net::Asn{65000}
                 : static_cast<net::Asn>(rng.next_int(1, 30));
    };
    b.peer(peer_asn, static_cast<std::uint16_t>(rng.next_below(3)));
    const auto routes = rng.next_int(0, 60);
    for (std::int64_t r = 0; r < routes; ++r) {
      std::string path = std::to_string(peer_asn);
      const auto hops = rng.next_int(0, 3);
      for (std::int64_t h = 0; h < hops; ++h) {
        path += " " + std::to_string(asn());
      }
      switch (rng.next_below(6)) {
        case 0:
          path += " [" + std::to_string(asn()) + "]";
          break;
        case 1:
          path += " [" + std::to_string(asn()) + " " +
                  std::to_string(asn()) + "]";
          break;
        default:
          path += " " + std::to_string(1 + rng.next_below(4));
          break;
      }
      const bool corrupt = rng.chance(addpath_broken ? 0.2 : 0.01);
      b.route(prefixes[rng.next_below(prefixes.size())], path,
              corrupt ? bgp::RecordStatus::kCorruptSubtype
                      : bgp::RecordStatus::kValid);
    }
  }
  return std::move(b.dataset());
}

TEST(SanitizeOracle, RandomAsSetDatasetsMatch) {
  Rng rng(2002);
  Coverage coverage;
  for (int trial = 0; trial < 200; ++trial) {
    const bgp::Dataset ds = random_dataset(rng);
    bgp::DatasetView view(ds);
    check_view(view, "random " + std::to_string(trial), coverage);
    if (HasFailure()) return;
  }
  EXPECT_GT(coverage.expanded, 0u);
  EXPECT_GT(coverage.dropped_asset, 0u);
  EXPECT_GT(coverage.dropped_corrupt, 0u);
  EXPECT_GT(coverage.moas, 0u);
  EXPECT_EQ(coverage.reasons.size(), 4u);
}

}  // namespace
}  // namespace bgpatoms::core
