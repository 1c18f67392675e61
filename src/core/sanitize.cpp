#include "core/sanitize.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "net/asn.h"
#include "obs/obs.h"

namespace bgpatoms::core {

bgp::PathId VpTable::path_for(bgp::PrefixId prefix) const {
  const auto it = std::lower_bound(
      routes.begin(), routes.end(), prefix,
      [](const auto& entry, bgp::PrefixId p) { return entry.first < p; });
  if (it == routes.end() || it->first != prefix) {
    return net::PathPool::kEmptyPathId;
  }
  return it->second;
}

const char* to_string(PeerRemovalReason reason) {
  switch (reason) {
    case PeerRemovalReason::kAddPathArtifacts:
      return "ADD-PATH artifacts";
    case PeerRemovalReason::kPrivateAsnInjection:
      return "private-ASN injection";
    case PeerRemovalReason::kExcessiveDuplicates:
      return "excessive duplicates";
    case PeerRemovalReason::kPartialFeed:
      return "partial feed";
  }
  return "?";
}

namespace {

/// True when a bogon ASN sits anywhere behind the path's first hop (AS_SET
/// members count in stored order). The peer's own leading hop may
/// legitimately repeat; a bogon *behind* it signals injection (the
/// AS65000 case).
bool bogon_behind_head(net::PathView path) {
  const auto hops = path.hops();
  return !hops.empty() &&
         std::any_of(hops.begin() + 1, hops.end(), net::is_bogon_asn);
}

struct PeerScan {
  std::size_t records = 0;
  std::size_t corrupt = 0;
  std::size_t duplicates = 0;
  std::size_t bogon_paths = 0;
  std::size_t unique_prefixes = 0;
};

/// Pass-1 statistics of one feed. `stamp[prefix]` holds the tag of the
/// last feed that carried the prefix (tags are distinct per feed);
/// `bogon[path]` memoizes bogon_behind_head per source path id
/// (-1 = not computed yet).
PeerScan scan_peer(const net::PathPool& paths, const bgp::PeerFeed& feed,
                   std::uint32_t tag, std::vector<std::uint32_t>& stamp,
                   std::vector<std::int8_t>& bogon) {
  PeerScan s;
  s.records = feed.records.size();
  for (const auto& rec : feed.records) {
    if (bgp::is_addpath_artifact(rec.status)) ++s.corrupt;
    if (stamp[rec.prefix] == tag) {
      ++s.duplicates;
    } else {
      stamp[rec.prefix] = tag;
      ++s.unique_prefixes;
    }
    std::int8_t& verdict = bogon[rec.path];
    if (verdict < 0) verdict = bogon_behind_head(paths.get(rec.path)) ? 1 : 0;
    s.bogon_paths += static_cast<std::size_t>(verdict);
  }
  return s;
}

/// What record cleaning does with one source path: keep it, keep its
/// singleton-AS_SET expansion, or drop it (multi-member AS_SET).
enum class Cleaning : std::uint8_t { kUnseen, kKeep, kExpand, kDrop };

struct CleanedPath {
  bgp::PathId id = net::PathPool::kEmptyPathId;  // in the output pool
  Cleaning action = Cleaning::kUnseen;
};

/// Counts, per prefix, the distinct values of `key(table)` over the tables
/// carrying it: the tables are visited grouped by key, and a prefix counts
/// a group once through its stamp.
template <typename Key>
void count_distinct(const std::vector<VpTable>& vps, Key key,
                    std::vector<std::uint32_t>& stamp,
                    std::vector<std::uint32_t>& count) {
  std::vector<std::uint32_t> order(vps.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return key(vps[a]) < key(vps[b]);
  });
  std::fill(stamp.begin(), stamp.end(), 0u);
  std::uint32_t group = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const VpTable& table = vps[order[i]];
    if (i == 0 || key(vps[order[i - 1]]) != key(table)) ++group;
    for (const auto& entry : table.routes) {
      if (stamp[entry.first] == group) continue;
      stamp[entry.first] = group;
      ++count[entry.first];
    }
  }
}

}  // namespace

// Every per-record lookup below is an index into a dense array: per-prefix
// arrays sized to the view's prefix pool, per-path memos sized to its path
// pool (the archive decoder rejects out-of-range ids, and in-memory
// datasets intern every id they hold). Each source path is inspected once
// — its bogon verdict in pass 1, its cleaning in pass 3 — so paths are
// interned into the output pool in the order of their first surviving
// record, exactly as interning every record would.
SanitizedSnapshot sanitize(const bgp::SnapshotView& src,
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
  const std::size_t n_prefixes = src.prefixes().size();
  const std::size_t n_paths = src.paths().size();
  std::vector<std::uint32_t> stamp(n_prefixes, 0);

  // --- pass 1: per-peer statistics & abnormal-peer removal ---------------
  // `kept_index[i]` remembers where kept[i] sat in snap.peers — the peer
  // namespace update records use (VpTable::source_index).
  std::vector<const bgp::PeerFeed*> kept;
  std::vector<std::uint32_t> kept_index;
  std::vector<PeerScan> scans;
  {
    OBS_SPAN("sanitize.peers");
    std::vector<std::int8_t> bogon(n_paths, -1);
    for (std::uint32_t raw = 0; raw < snap.peers.size(); ++raw) {
      const auto& feed = snap.peers[raw];
      const PeerScan s = scan_peer(src.paths(), feed, raw + 1, stamp, bogon);
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
          rep.removed_peers.push_back({feed.peer,
                                       PeerRemovalReason::kPrivateAsnInjection,
                                       bogon_share});
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
    for (const auto& s : scans) {
      max_unique = std::max(max_unique, s.unique_prefixes);
    }
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
  }
  rep.full_feed_peers = kept.size();

  // --- pass 3: record cleaning into per-VP tables -------------------------
  {
    OBS_SPAN("sanitize.clean");
    std::vector<CleanedPath> cleaned(n_paths);
    std::size_t paths_cleaned = 0;
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
        CleanedPath& path = cleaned[rec.path];
        if (path.action == Cleaning::kUnseen) {
          ++paths_cleaned;
          const net::PathView raw = src.paths().get(rec.path);
          if (!raw.has_set()) {
            path = {out.paths.intern(src.paths(), rec.path), Cleaning::kKeep};
          } else if (raw.sets_all_singleton()) {
            path = {out.paths.intern(raw.with_singleton_sets_expanded()),
                    Cleaning::kExpand};
          } else {
            path.action = Cleaning::kDrop;
          }
        }
        if (path.action == Cleaning::kDrop) {
          ++rep.records_dropped_asset;
          continue;
        }
        if (path.action == Cleaning::kExpand) ++rep.asset_paths_expanded;
        table.routes.emplace_back(rec.prefix, path.id);
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
    OBS_COUNT_N("sanitize.paths_cleaned", paths_cleaned);
  }

  // --- pass 4: prefix filtering -------------------------------------------
  OBS_SPAN("sanitize.filter");
  std::vector<std::uint32_t> collectors(n_prefixes, 0);
  std::vector<std::uint32_t> peer_ases(n_prefixes, 0);
  count_distinct(
      out.vps, [](const VpTable& t) { return t.peer.collector; }, stamp,
      collectors);
  count_distinct(
      out.vps, [](const VpTable& t) { return t.peer.asn; }, stamp, peer_ases);

  // Visiting prefix ids in order emits out.prefixes already sorted.
  std::vector<char> keep(n_prefixes, 0);
  for (bgp::PrefixId prefix = 0; prefix < n_prefixes; ++prefix) {
    if (collectors[prefix] == 0) continue;  // no retained VP carries it
    ++rep.prefixes_in;
    if (src.prefixes().get(prefix).length() > max_len) {
      ++rep.prefixes_dropped_length;
      continue;
    }
    if (config.filter_prefixes &&
        (collectors[prefix] <
             static_cast<std::size_t>(config.min_collectors) ||
         peer_ases[prefix] < static_cast<std::size_t>(config.min_peer_ases))) {
      ++rep.prefixes_dropped_visibility;
      continue;
    }
    keep[prefix] = 1;
    out.prefixes.push_back(prefix);
  }
  rep.prefixes_kept = out.prefixes.size();

  for (auto& table : out.vps) {
    std::erase_if(table.routes,
                  [&](const auto& entry) { return keep[entry.first] == 0; });
  }

  // --- MOAS accounting (not removed; §2.4.3) ------------------------------
  std::vector<std::optional<net::Asn>> origin(out.paths.size());
  for (bgp::PathId id = 0; id < out.paths.size(); ++id) {
    origin[id] = out.paths.get(id).origin();
  }
  std::vector<std::optional<net::Asn>> first_origin(n_prefixes);
  std::vector<char> moas(n_prefixes, 0);
  for (const auto& table : out.vps) {
    for (const auto& [prefix, path] : table.routes) {
      if (!origin[path]) continue;
      auto& first = first_origin[prefix];
      if (!first) {
        first = origin[path];
      } else if (*first != *origin[path] && moas[prefix] == 0) {
        moas[prefix] = 1;
        ++rep.moas_prefixes;
      }
    }
  }

  return out;
}

SanitizedSnapshot sanitize(const bgp::Dataset& ds, std::size_t index,
                           const SanitizeConfig& config) {
  bgp::DatasetView view(ds);
  return sanitize(view, ds.snapshots.at(index), config);
}

}  // namespace bgpatoms::core
