#include "stream/reader.h"

namespace bgpatoms::stream {

RecordReader::RecordReader(const bgp::Dataset& ds, Filters filters)
    : ds_(ds), filters_(std::move(filters)) {
  if (!filters_.include_rib) in_updates_ = true;
}

bool RecordReader::match_common(std::string_view collector,
                                net::Asn peer) const {
  return filters_match(filters_, collector, peer);
}

std::optional<Record> RecordReader::next() {
  // --- RIB phase -----------------------------------------------------------
  while (!in_updates_) {
    if (snap_ >= ds_.snapshots.size()) {
      in_updates_ = true;
      break;
    }
    const auto& snap = ds_.snapshots[snap_];
    if (snap.timestamp < filters_.time_begin ||
        snap.timestamp > filters_.time_end || peer_ >= snap.peers.size()) {
      ++snap_;
      peer_ = 0;
      rec_ = 0;
      continue;
    }
    const auto& feed = snap.peers[peer_];
    if (rec_ >= feed.records.size()) {
      ++peer_;
      rec_ = 0;
      continue;
    }
    const auto& rec = feed.records[rec_++];
    const auto& collector = ds_.collectors[feed.peer.collector];
    if (!match_common(collector, feed.peer.asn)) continue;
    const auto& prefix = ds_.prefixes.get(rec.prefix);
    if (filters_.prefix_within && !filters_.prefix_within->contains(prefix))
      continue;

    Record out;
    out.type = RecordType::kRibEntry;
    out.timestamp = snap.timestamp;
    out.collector = collector;
    out.peer_asn = feed.peer.asn;
    out.peer_address = feed.peer.address;
    out.prefix = prefix;
    out.path = ds_.paths.get(rec.path);
    out.communities = ds_.communities.get(rec.communities);
    out.status = rec.status;
    ++count_;
    return out;
  }

  // --- update phase --------------------------------------------------------
  if (!filters_.include_updates) return std::nullopt;
  while (upd_ < ds_.updates.size()) {
    const auto& u = ds_.updates[upd_];
    const std::size_t total = u.announced.size() + u.withdrawn.size();
    if (upd_item_ >= total || u.timestamp < filters_.time_begin ||
        u.timestamp > filters_.time_end) {
      ++upd_;
      upd_item_ = 0;
      continue;
    }
    const bool is_announce = upd_item_ < u.announced.size();
    const bgp::PrefixId pid = is_announce
                                  ? u.announced[upd_item_]
                                  : u.withdrawn[upd_item_ - u.announced.size()];
    ++upd_item_;

    const auto& collector = ds_.collectors[u.collector];
    // Peer identity: resolve through the first snapshot that has this peer
    // index (the simulator keeps peer order stable across snapshots).
    net::Asn peer_asn = 0;
    net::IpAddress peer_addr;
    if (!ds_.snapshots.empty() &&
        u.peer < ds_.snapshots.front().peers.size()) {
      const auto& p = ds_.snapshots.front().peers[u.peer].peer;
      peer_asn = p.asn;
      peer_addr = p.address;
    }
    if (!match_common(collector, peer_asn)) continue;
    const auto& prefix = ds_.prefixes.get(pid);
    if (filters_.prefix_within && !filters_.prefix_within->contains(prefix))
      continue;

    Record out;
    out.type = is_announce ? RecordType::kAnnouncement
                           : RecordType::kWithdrawal;
    out.timestamp = u.timestamp;
    out.collector = collector;
    out.peer_asn = peer_asn;
    out.peer_address = peer_addr;
    out.prefix = prefix;
    if (is_announce) out.path = ds_.paths.get(u.path);
    out.communities = ds_.communities.get(u.communities);
    ++count_;
    return out;
  }
  return std::nullopt;
}

}  // namespace bgpatoms::stream
