// A BGPStream-like record interface over BGA datasets.
//
// The paper's pipeline consumes MRT archives through libbgpstream's
// record iterator with collector/peer/prefix/time filters; this is the
// equivalent layer for our archives. Records are yielded RIB-first (in
// snapshot order), then updates in timestamp order, exactly like
// `bgpreader -t ribs,updates`.
#pragma once

#include <optional>
#include <span>
#include <string_view>

#include "bgp/dataset.h"

namespace bgpatoms::stream {

enum class RecordType : std::uint8_t {
  kRibEntry,
  kAnnouncement,
  kWithdrawal,
};

/// One elementary routing record (a RIB row or one NLRI of an update).
struct Record {
  RecordType type = RecordType::kRibEntry;
  bgp::Timestamp timestamp = 0;
  std::string_view collector;
  net::Asn peer_asn = 0;
  net::IpAddress peer_address;
  net::Prefix prefix;
  /// A view into the reader's path pool; empty for withdrawals.
  std::optional<net::PathView> path;
  std::span<const bgp::Community> communities;
  bgp::RecordStatus status = bgp::RecordStatus::kValid;
};

/// Filters in the spirit of bgpstream's interface. Default-constructed
/// filters accept everything.
struct Filters {
  std::optional<std::string> collector;
  std::optional<net::Asn> peer_asn;
  /// Keep records whose prefix equals or is contained in this one.
  std::optional<net::Prefix> prefix_within;
  bgp::Timestamp time_begin = INT64_MIN;
  bgp::Timestamp time_end = INT64_MAX;
  bool include_rib = true;
  bool include_updates = true;
};

/// Collector/peer predicate shared by the in-memory and streaming readers.
inline bool filters_match(const Filters& f, std::string_view collector,
                          net::Asn peer) {
  if (f.collector && collector != *f.collector) return false;
  if (f.peer_asn && peer != *f.peer_asn) return false;
  return true;
}

class RecordReader {
 public:
  /// Iterates `ds`; the dataset must outlive the reader.
  explicit RecordReader(const bgp::Dataset& ds, Filters filters = {});

  /// Next matching record, or nullopt at end of stream.
  std::optional<Record> next();

  /// Records yielded so far.
  std::size_t count() const { return count_; }

 private:
  bool match_common(std::string_view collector, net::Asn peer) const;
  void advance_rib_cursor();

  const bgp::Dataset& ds_;
  Filters filters_;
  // RIB cursor.
  std::size_t snap_ = 0;
  std::size_t peer_ = 0;
  std::size_t rec_ = 0;
  // Update cursor.
  std::size_t upd_ = 0;
  std::size_t upd_item_ = 0;  // index into announced+withdrawn of updates_[upd_]
  bool in_updates_ = false;
  std::size_t count_ = 0;
};

}  // namespace bgpatoms::stream
