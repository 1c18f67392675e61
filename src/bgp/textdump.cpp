#include "bgp/textdump.h"

#include <ostream>
#include <string_view>
#include <vector>

namespace bgpatoms::bgp {

namespace {

bool in_window(const TextFilter& f, Timestamp t) {
  return t >= f.time_begin && t < f.time_end;
}

bool peer_matches(const TextFilter& f, std::string_view collector,
                  net::Asn peer) {
  if (f.collector && collector != *f.collector) return false;
  if (f.peer_asn && peer != *f.peer_asn) return false;
  return true;
}

bool prefix_matches(const TextFilter& f, const net::Prefix& prefix) {
  return !f.prefix_within || f.prefix_within->contains(prefix);
}

void write_line(std::ostream& out, Timestamp t, char kind,
                std::string_view collector, const std::string& peer_address,
                net::Asn peer_asn, const net::Prefix& prefix,
                const net::PathView* path) {
  out << t << '|' << kind << '|' << collector << '|' << peer_address << '|'
      << peer_asn << '|' << prefix.to_string() << '|';
  if (path) out << path->to_string();
  out << '\n';
}

}  // namespace

void dump_text(SnapshotView& snapshots, UpdateStreamView& updates,
               const TextFilter& filter, std::ostream& out) {
  const auto& collectors = snapshots.collectors();
  const auto& prefixes = snapshots.prefixes();
  const auto& paths = snapshots.paths();

  // Copied before the cursor advances: a streamed view frees each
  // snapshot when the next one is requested.
  std::vector<PeerIdentity> first_peers;
  bool first = true;
  while (const Snapshot* snap = snapshots.next_snapshot()) {
    if (first) {
      first = false;
      for (const auto& feed : snap->peers) first_peers.push_back(feed.peer);
    }
    if (!filter.include_rib || !in_window(filter, snap->timestamp)) continue;
    for (const auto& feed : snap->peers) {
      const auto& collector = collectors[feed.peer.collector];
      if (!peer_matches(filter, collector, feed.peer.asn)) continue;
      const std::string address = feed.peer.address.to_string();
      for (const auto& rec : feed.records) {
        const auto& prefix = prefixes.get(rec.prefix);
        if (!prefix_matches(filter, prefix)) continue;
        const net::PathView path = paths.get(rec.path);
        write_line(out, snap->timestamp, 'B', collector, address,
                   feed.peer.asn, prefix, &path);
      }
    }
  }
  if (!filter.include_updates) return;

  const PeerIdentity unknown_peer;
  for (auto chunk = updates.next_chunk(); !chunk.empty();
       chunk = updates.next_chunk()) {
    for (const auto& u : chunk) {
      if (!in_window(filter, u.timestamp)) continue;
      const PeerIdentity& peer =
          u.peer < first_peers.size() ? first_peers[u.peer] : unknown_peer;
      const auto& collector = collectors[u.collector];
      if (!peer_matches(filter, collector, peer.asn)) continue;
      const std::string address = peer.address.to_string();
      // A withdrawal-only record carries no path to resolve.
      const net::PathView path =
          u.announced.empty() ? net::PathView{} : paths.get(u.path);
      for (const PrefixId p : u.announced) {
        const auto& prefix = prefixes.get(p);
        if (prefix_matches(filter, prefix)) {
          write_line(out, u.timestamp, 'A', collector, address, peer.asn,
                     prefix, &path);
        }
      }
      for (const PrefixId p : u.withdrawn) {
        const auto& prefix = prefixes.get(p);
        if (prefix_matches(filter, prefix)) {
          write_line(out, u.timestamp, 'W', collector, address, peer.asn,
                     prefix, nullptr);
        }
      }
    }
  }
}

}  // namespace bgpatoms::bgp
