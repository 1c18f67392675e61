// Streamed backend for the analysis views (views.h): SnapshotView +
// UpdateStreamView over a BGA file through bgp::ArchiveReader.
//
// Residency: at most one decoded snapshot section and one update chunk
// (64K records, bgp/archive_format.h) are held at a time — the previous
// snapshot is destroyed when the cursor advances, and next_chunk() frees
// the snapshot slot before loading the first chunk. peak_resident_records()
// therefore stays at max(largest snapshot, largest snapshot-to-chunk
// overlap) and does not grow with the number of snapshots in the archive;
// bench/perf_archive --rss-guard enforces this. The reader underneath
// buffers one framed section at a time (ArchiveReader::peak_buffer_bytes()),
// so the bound holds for every archive.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "bgp/archive_reader.h"
#include "bgp/views.h"

namespace bgpatoms::bgp {

class ArchiveView final : public SnapshotView, public UpdateStreamView {
 public:
  /// Opens `path`. Throws ArchiveError on malformed input;
  /// later cursor calls throw if a section turns out corrupt or truncated.
  explicit ArchiveView(const std::string& path);

  net::Family family() const override { return reader_.family(); }
  const std::vector<std::string>& collectors() const override {
    return reader_.collectors();
  }
  const net::PathPool& paths() const override { return reader_.paths(); }
  const PrefixPool& prefixes() const override { return reader_.prefixes(); }
  const CommunitySetPool& communities() const override {
    return reader_.communities();
  }

  const Snapshot* next_snapshot() override;

  /// On-disk order is snapshots first; the first next_chunk() call drains
  /// any snapshot sections not yet consumed (and frees the snapshot slot).
  std::span<const UpdateRecord> next_chunk() override;

  std::size_t peak_resident_records() const override { return peak_resident_; }

  /// The underlying reader (file/peak-buffer byte counters).
  const ArchiveReader& archive() const { return reader_; }

 private:
  void note_residency();

  ArchiveReader reader_;
  std::optional<Snapshot> snap_;
  std::optional<std::vector<UpdateRecord>> chunk_;
  bool snapshots_done_ = false;
  std::size_t peak_resident_ = 0;
};

}  // namespace bgpatoms::bgp
