// Streaming reader for BGA archives, and the only BGA decoder.
//
// Motivation: two decades of RIB+update campaigns produce multi-GB archives;
// buffering the entire file next to the decoded dataset would double peak
// memory. ArchiveReader decodes one CRC-checked section at a time through
// buffered 64-bit file I/O, so peak transient memory is the dictionary
// header plus one section — consumers can start working on the first
// snapshot before the tail of the file is read.
//
// Usage:
//
//   ArchiveReader reader("campaign.bga");
//   // dictionaries are decoded eagerly and live for the reader's lifetime
//   while (auto snap = reader.next_snapshot()) { ... }
//   while (auto chunk = reader.next_updates()) { ... }
//
// Snapshots must be drained before updates (the on-disk order). read_all()
// on a fresh reader reconstructs the full Dataset, which is how the
// whole-archive convenience API (read_archive_file, and read_archive over
// an in-memory image) is implemented.
//
// All methods throw ArchiveError on malformed input or I/O failure.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bgp/archive.h"
#include "bgp/dataset.h"

namespace bgpatoms::bgp {

class ArchiveReader {
 public:
  explicit ArchiveReader(const std::string& path);
  /// Decodes an in-memory image instead of a file; `image` must outlive
  /// the reader.
  explicit ArchiveReader(std::span<const std::uint8_t> image);

  net::Family family() const { return header_.family; }
  const std::vector<std::string>& collectors() const {
    return header_.collectors;
  }
  const net::PathPool& paths() const { return header_.paths; }
  const PrefixPool& prefixes() const { return header_.prefixes; }
  const CommunitySetPool& communities() const { return header_.communities; }

  /// Next snapshot, or nullopt once the snapshot run ends. Sections are
  /// CRC-verified before decode.
  std::optional<Snapshot> next_snapshot();

  /// Next chunk of update records (in timestamp order across chunks), or
  /// nullopt at end of archive. Throws if snapshots were not drained first.
  std::optional<std::vector<UpdateRecord>> next_updates();

  /// Drains the whole archive into a Dataset. Call on a fresh reader only;
  /// the reader's dictionaries are moved out and it must not be used after.
  Dataset read_all();

  /// Total archive size in bytes (64-bit safe).
  std::uint64_t file_bytes() const { return file_size_; }

  /// High-water mark of the transient decode buffer: the largest section
  /// payload. The bounded-peak-memory evidence reported by
  /// bench/perf_archive.
  std::uint64_t peak_buffer_bytes() const { return peak_buffer_; }

 private:
  enum class Phase { kSnapshots, kUpdates, kDone };

  struct FileCloser {
    void operator()(std::FILE* f) const {
      if (f) std::fclose(f);
    }
  };

  /// Checks the header and decodes the four dictionary sections.
  void read_header();
  void read_exact(void* out, std::size_t n);
  /// Reads one section frame; verifies the payload CRC. Returns the id.
  std::uint8_t read_section(std::vector<std::uint8_t>& payload);
  void finish_end_section();

  std::unique_ptr<std::FILE, FileCloser> file_;  // null: reading image_
  std::span<const std::uint8_t> image_;
  std::string path_;
  std::uint64_t file_size_ = 0;
  std::uint64_t offset_ = 0;
  std::uint64_t peak_buffer_ = 0;

  Dataset header_;  // dictionaries only
  Phase phase_ = Phase::kSnapshots;

  // One-slot pushback: the section that ended the snapshot run.
  std::optional<std::pair<std::uint8_t, std::vector<std::uint8_t>>> pending_;
};

}  // namespace bgpatoms::bgp
