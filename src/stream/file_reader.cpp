#include "stream/file_reader.h"

namespace bgpatoms::stream {

FileRecordReader::FileRecordReader(const std::string& path, Filters filters)
    : reader_(path), filters_(std::move(filters)) {}

std::optional<Record> FileRecordReader::next() {
  if (!rib_done_) {
    if (auto rec = next_rib()) return rec;
  }
  if (!filters_.include_updates) return std::nullopt;
  return next_update();
}

std::optional<Record> FileRecordReader::next_rib() {
  for (;;) {
    if (!snap_) {
      snap_ = reader_.next_snapshot();
      if (!snap_) {
        rib_done_ = true;
        return std::nullopt;
      }
      peer_ = 0;
      rec_ = 0;
      if (!have_first_peers_) {
        have_first_peers_ = true;
        first_peers_.reserve(snap_->peers.size());
        for (const auto& feed : snap_->peers)
          first_peers_.push_back(feed.peer);
      }
      // Snapshots outside the window (or with RIBs filtered out entirely)
      // are still drained from the archive, just not emitted.
      if (!filters_.include_rib || snap_->timestamp < filters_.time_begin ||
          snap_->timestamp > filters_.time_end) {
        snap_.reset();
        continue;
      }
    }
    if (peer_ >= snap_->peers.size()) {
      snap_.reset();
      continue;
    }
    const auto& feed = snap_->peers[peer_];
    if (rec_ >= feed.records.size()) {
      ++peer_;
      rec_ = 0;
      continue;
    }
    const auto& rec = feed.records[rec_++];
    const auto& collector = reader_.collectors()[feed.peer.collector];
    if (!filters_match(filters_, collector, feed.peer.asn)) continue;
    const auto& prefix = reader_.prefixes().get(rec.prefix);
    if (filters_.prefix_within && !filters_.prefix_within->contains(prefix))
      continue;

    Record out;
    out.type = RecordType::kRibEntry;
    out.timestamp = snap_->timestamp;
    out.collector = collector;
    out.peer_asn = feed.peer.asn;
    out.peer_address = feed.peer.address;
    out.prefix = prefix;
    out.path = reader_.paths().get(rec.path);
    out.communities = reader_.communities().get(rec.communities);
    out.status = rec.status;
    ++count_;
    return out;
  }
}

std::optional<Record> FileRecordReader::next_update() {
  for (;;) {
    if (!chunk_) {
      if (updates_done_) return std::nullopt;
      chunk_ = reader_.next_updates();
      if (!chunk_) {
        updates_done_ = true;
        return std::nullopt;
      }
      upd_ = 0;
      upd_item_ = 0;
    }
    if (upd_ >= chunk_->size()) {
      chunk_.reset();
      continue;
    }
    const auto& u = (*chunk_)[upd_];
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

    const auto& collector = reader_.collectors()[u.collector];
    net::Asn peer_asn = 0;
    net::IpAddress peer_addr;
    if (u.peer < first_peers_.size()) {
      peer_asn = first_peers_[u.peer].asn;
      peer_addr = first_peers_[u.peer].address;
    }
    if (!filters_match(filters_, collector, peer_asn)) continue;
    const auto& prefix = reader_.prefixes().get(pid);
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
    if (is_announce) out.path = reader_.paths().get(u.path);
    out.communities = reader_.communities().get(u.communities);
    ++count_;
    return out;
  }
}

}  // namespace bgpatoms::stream
