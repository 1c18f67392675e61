#include "bgp/archive_reader.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <span>

#include "bgp/archive_format.h"
#include "obs/obs.h"

namespace bgpatoms::bgp {

using namespace archive_detail;

ArchiveReader::ArchiveReader(const std::string& path) : path_(path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec) throw ArchiveError("cannot stat: " + path);
  file_size_ = static_cast<std::uint64_t>(size);

  file_.reset(std::fopen(path.c_str(), "rb"));
  if (!file_) throw ArchiveError("cannot open for reading: " + path);
  read_header();
}

ArchiveReader::ArchiveReader(std::span<const std::uint8_t> image)
    : image_(image), file_size_(image.size()) {
  read_header();
}

void ArchiveReader::read_header() {
  std::uint8_t head[5];
  if (file_size_ < sizeof head) throw ArchiveError("archive too small");
  read_exact(head, sizeof head);
  if (std::memcmp(head, kMagicV2, 4) != 0) throw ArchiveError("bad magic");

  std::uint8_t head_crc_bytes[4];
  read_exact(head_crc_bytes, sizeof head_crc_bytes);
  std::uint32_t head_crc = 0;
  for (int i = 0; i < 4; ++i)
    head_crc |= std::uint32_t{head_crc_bytes[i]} << (8 * i);
  OBS_COUNT("archive.crc_checks");
  if (crc32(std::span<const std::uint8_t>(head, sizeof head)) != head_crc)
    throw ArchiveError("header CRC mismatch");
  if (head[4] != 4 && head[4] != 6) throw ArchiveError("bad family");
  header_.family = head[4] == 4 ? net::Family::kIPv4 : net::Family::kIPv6;

  // The four dictionary sections are decoded eagerly: every later section
  // resolves ids against them.
  constexpr Section dict_order[] = {Section::kCollectors, Section::kPaths,
                                    Section::kPrefixes, Section::kCommunities};
  std::vector<std::uint8_t> payload;
  for (Section expect : dict_order) {
    if (read_section(payload) != static_cast<std::uint8_t>(expect))
      throw ArchiveError("section out of order");
    ByteReader r(payload);
    switch (expect) {
      case Section::kCollectors: decode_collectors(r, header_); break;
      case Section::kPaths: decode_paths(r, header_); break;
      case Section::kPrefixes: decode_prefixes(r, header_); break;
      default: decode_communities(r, header_); break;
    }
    if (!r.at_end()) throw ArchiveError("trailing bytes in section");
  }
}

void ArchiveReader::read_exact(void* out, std::size_t n) {
  if (!file_) {
    if (n > file_size_ - offset_) throw ArchiveError("truncated archive");
    std::copy_n(image_.data() + offset_, n, static_cast<std::uint8_t*>(out));
    offset_ += n;
    return;
  }
  auto* p = static_cast<std::uint8_t*>(out);
  while (n > 0) {
    const std::size_t got = std::fread(p, 1, n, file_.get());
    if (got == 0) throw ArchiveError("short read: " + path_);
    p += got;
    n -= got;
    offset_ += got;
  }
}

std::uint8_t ArchiveReader::read_section(std::vector<std::uint8_t>& payload) {
  OBS_SPAN("archive.read_section");
  // Frame header: id u8 + length u64 LE.
  std::uint8_t header[9];
  read_exact(header, sizeof header);
  const std::uint8_t id = header[0];
  if (id > static_cast<std::uint8_t>(Section::kUpdates))
    throw ArchiveError("unknown section id");
  std::uint64_t len = 0;
  for (int i = 0; i < 8; ++i) len |= std::uint64_t{header[1 + i]} << (8 * i);
  // The payload plus its 4-byte CRC must fit in the bytes actually left, so
  // a hostile length can never trigger an oversized allocation.
  if (file_size_ - offset_ < 4 || len > file_size_ - offset_ - 4)
    throw ArchiveError("truncated archive");
  payload.resize(static_cast<std::size_t>(len));
  read_exact(payload.data(), payload.size());
  std::uint8_t crc_bytes[4];
  read_exact(crc_bytes, sizeof crc_bytes);
  std::uint32_t stored_crc = 0;
  for (int i = 0; i < 4; ++i) stored_crc |= std::uint32_t{crc_bytes[i]} << (8 * i);
  OBS_COUNT("archive.crc_checks");
  if (crc32(std::span<const std::uint8_t>(payload.data(), payload.size())) !=
      stored_crc)
    throw ArchiveError("section CRC mismatch");
  if (len > peak_buffer_) peak_buffer_ = len;
  OBS_COUNT("archive.sections");
  OBS_COUNT_N("archive.bytes_decoded", sizeof header + len + sizeof crc_bytes);
  return id;
}

void ArchiveReader::finish_end_section() {
  phase_ = Phase::kDone;
  if (offset_ != file_size_) throw ArchiveError("trailing bytes in archive");
}

std::optional<Snapshot> ArchiveReader::next_snapshot() {
  if (phase_ != Phase::kSnapshots) return std::nullopt;

  std::vector<std::uint8_t> payload;
  const std::uint8_t id = read_section(payload);
  if (id == static_cast<std::uint8_t>(Section::kSnapshot)) {
    ByteReader r(payload);
    Snapshot snap = decode_snapshot(r, header_);
    if (!r.at_end()) throw ArchiveError("trailing bytes in section");
    OBS_COUNT("archive.snapshots_decoded");
    return snap;
  }
  // The snapshot run is over; hand the section to the updates phase.
  phase_ = Phase::kUpdates;
  pending_.emplace(id, std::move(payload));
  return std::nullopt;
}

std::optional<std::vector<UpdateRecord>> ArchiveReader::next_updates() {
  if (phase_ == Phase::kSnapshots)
    throw ArchiveError("snapshots not fully consumed");
  if (phase_ == Phase::kDone) return std::nullopt;

  std::vector<std::uint8_t> payload;
  std::uint8_t id;
  if (pending_) {
    id = pending_->first;
    payload = std::move(pending_->second);
    pending_.reset();
  } else {
    id = read_section(payload);
  }
  if (id == static_cast<std::uint8_t>(Section::kEnd)) {
    if (!payload.empty()) throw ArchiveError("non-empty end section");
    finish_end_section();
    return std::nullopt;
  }
  if (id != static_cast<std::uint8_t>(Section::kUpdates))
    throw ArchiveError("section out of order");
  ByteReader r(payload);
  auto chunk = decode_updates(r, header_);
  if (!r.at_end()) throw ArchiveError("trailing bytes in section");
  OBS_COUNT("archive.update_chunks");
  OBS_COUNT_N("archive.update_records_decoded", chunk.size());
  return chunk;
}

Dataset ArchiveReader::read_all() {
  Dataset out;
  while (auto snap = next_snapshot()) out.snapshots.push_back(std::move(*snap));
  while (auto chunk = next_updates()) {
    out.updates.insert(out.updates.end(),
                       std::make_move_iterator(chunk->begin()),
                       std::make_move_iterator(chunk->end()));
  }
  // Records reference the dictionaries by id; move them over last.
  out.family = header_.family;
  out.collectors = std::move(header_.collectors);
  out.paths = std::move(header_.paths);
  out.prefixes = std::move(header_.prefixes);
  out.communities = std::move(header_.communities);
  return out;
}

Dataset read_archive_file(const std::string& path) {
  return ArchiveReader(path).read_all();
}

Dataset read_archive(std::span<const std::uint8_t> image) {
  return ArchiveReader(image).read_all();
}

}  // namespace bgpatoms::bgp
