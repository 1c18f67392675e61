// Human-readable record dump in the pipe-separated spirit of `bgpdump -m`.
//
// One line per elementary record, RIB rows snapshot by snapshot first,
// then update NLRIs in stream order (announcements of an update record
// before its withdrawals):
//
//   <time>|B|<collector>|<peer address>|<peer asn>|<prefix>|<as path>
//   <time>|A|<collector>|<peer address>|<peer asn>|<prefix>|<as path>
//   <time>|W|<collector>|<peer address>|<peer asn>|<prefix>|
//
// The dump runs over the analysis views (views.h), so a BGA file streams
// through bgp::ArchiveView one section at a time and an in-memory Dataset
// goes through DatasetView with identical output. Never parsed back (BGA
// is the machine format).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>

#include "bgp/views.h"

namespace bgpatoms::bgp {

/// Record filters in the spirit of bgpstream's interface. A
/// default-constructed filter keeps everything.
struct TextFilter {
  std::optional<std::string> collector;
  std::optional<net::Asn> peer_asn;
  /// Keep records whose prefix equals or is contained in this one.
  std::optional<net::Prefix> prefix_within;
  /// Half-open time window [time_begin, time_end), applied to RIB
  /// snapshots and update records alike.
  Timestamp time_begin = INT64_MIN;
  Timestamp time_end = INT64_MAX;
  bool include_rib = true;
  bool include_updates = true;
};

/// Writes every record of `snapshots` then `updates` that passes
/// `filter`, one line each. Update records name their peer by index;
/// it resolves through the first snapshot's peer identities (the
/// simulator keeps peer order stable across snapshots), or to AS 0 when
/// there is no such peer. Every snapshot is drained, even when none is
/// printed; the update stream is not touched when `include_updates` is
/// off. Throws whatever the views throw (ArchiveError on a corrupt file).
void dump_text(SnapshotView& snapshots, UpdateStreamView& updates,
               const TextFilter& filter, std::ostream& out);

}  // namespace bgpatoms::bgp
