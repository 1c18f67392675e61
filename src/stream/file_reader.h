// Streaming record iteration straight off a BGA file.
//
// RecordReader (reader.h) walks a fully materialized bgp::Dataset;
// FileRecordReader yields the same record stream — RIB rows snapshot by
// snapshot, then update NLRIs in timestamp order — directly from a
// bgp::ArchiveReader, so a multi-GB archive is consumed section at a
// time and the first records are available before the file tail is read.
// Peak memory is the archive's dictionaries plus one snapshot / one update
// chunk.
//
// Record fields (collector name, AS path pointer, community span) point
// into the reader's dictionaries and stay valid for its lifetime; the
// current snapshot's rows are resolved before the snapshot is discarded.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "bgp/archive_reader.h"
#include "stream/reader.h"

namespace bgpatoms::stream {

class FileRecordReader {
 public:
  /// Opens the BGA file `path`. Throws bgp::ArchiveError on failure.
  explicit FileRecordReader(const std::string& path, Filters filters = {});

  /// Next matching record, or nullopt at end of stream. Throws
  /// bgp::ArchiveError if a later section turns out corrupt or truncated.
  std::optional<Record> next();

  /// Records yielded so far.
  std::size_t count() const { return count_; }

  /// The underlying archive (dictionaries, peak buffer stats).
  const bgp::ArchiveReader& archive() const { return reader_; }

 private:
  std::optional<Record> next_rib();
  std::optional<Record> next_update();

  bgp::ArchiveReader reader_;
  Filters filters_;

  // RIB phase: the snapshot currently being emitted.
  std::optional<bgp::Snapshot> snap_;
  std::size_t peer_ = 0;
  std::size_t rec_ = 0;
  bool rib_done_ = false;

  // Peer identities from the first snapshot, used to resolve the peer
  // index carried by update records (the simulator keeps peer order
  // stable across snapshots).
  std::vector<bgp::PeerIdentity> first_peers_;
  bool have_first_peers_ = false;

  // Update phase: the chunk currently being emitted.
  std::optional<std::vector<bgp::UpdateRecord>> chunk_;
  std::size_t upd_ = 0;
  std::size_t upd_item_ = 0;
  bool updates_done_ = false;

  std::size_t count_ = 0;
};

}  // namespace bgpatoms::stream
