#include "net/aspath.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <utility>

namespace bgpatoms::net {

AsPath AsPath::sequence(std::vector<Asn> asns) {
  AsPath p;
  if (!asns.empty()) {
    p.segments_.push_back({SegmentType::kSequence, std::move(asns)});
  }
  return p;
}

AsPath AsPath::from_segments(std::vector<PathSegment> segments) {
  AsPath p;
  for (auto& seg : segments) {
    if (!seg.asns.empty()) p.segments_.push_back(std::move(seg));
  }
  return p;
}

std::optional<AsPath> AsPath::parse(std::string_view text) {
  AsPath path;
  PathSegment current{SegmentType::kSequence, {}};
  bool in_set = false;

  auto flush_sequence = [&] {
    if (!current.asns.empty()) {
      path.segments_.push_back(std::move(current));
      current = {SegmentType::kSequence, {}};
    }
  };

  std::size_t i = 0;
  while (i < text.size()) {
    const char c = text[i];
    if (c == ' ' || c == '\t') {
      ++i;
    } else if (c == '[') {
      if (in_set) return std::nullopt;
      flush_sequence();
      in_set = true;
      current.type = SegmentType::kSet;
      ++i;
    } else if (c == ']') {
      if (!in_set || current.asns.empty()) return std::nullopt;
      path.segments_.push_back(std::move(current));
      current = {SegmentType::kSequence, {}};
      in_set = false;
      ++i;
    } else if (c >= '0' && c <= '9') {
      Asn asn = 0;
      auto [p, ec] = std::from_chars(text.data() + i, text.data() + text.size(), asn);
      if (ec != std::errc()) return std::nullopt;
      current.asns.push_back(asn);
      i = static_cast<std::size_t>(p - text.data());
    } else {
      return std::nullopt;
    }
  }
  if (in_set) return std::nullopt;
  flush_sequence();
  return path;
}

int AsPath::selection_length() const {
  int len = 0;
  for (const auto& seg : segments_) {
    len += seg.type == SegmentType::kSequence
               ? static_cast<int>(seg.asns.size())
               : 1;
  }
  return len;
}

std::optional<Asn> AsPath::origin() const {
  if (segments_.empty()) return std::nullopt;
  const auto& last = segments_.back();
  if (last.asns.empty()) return std::nullopt;
  if (last.type == SegmentType::kSequence) return last.asns.back();
  if (last.asns.size() == 1) return last.asns.front();
  return std::nullopt;  // aggregated origin is ambiguous
}

std::optional<Asn> AsPath::head() const {
  if (segments_.empty() || segments_.front().asns.empty())
    return std::nullopt;
  return segments_.front().asns.front();
}

bool AsPath::has_set() const {
  return std::any_of(segments_.begin(), segments_.end(), [](const auto& s) {
    return s.type == SegmentType::kSet;
  });
}

bool AsPath::sets_all_singleton() const {
  return std::all_of(segments_.begin(), segments_.end(), [](const auto& s) {
    return s.type == SegmentType::kSequence || s.asns.size() == 1;
  });
}

AsPath AsPath::with_singleton_sets_expanded() const {
  AsPath out;
  for (const auto& seg : segments_) {
    const bool as_sequence =
        seg.type == SegmentType::kSequence || seg.asns.size() == 1;
    if (as_sequence && !out.segments_.empty() &&
        out.segments_.back().type == SegmentType::kSequence) {
      auto& back = out.segments_.back().asns;
      back.insert(back.end(), seg.asns.begin(), seg.asns.end());
    } else if (as_sequence) {
      out.segments_.push_back({SegmentType::kSequence, seg.asns});
    } else {
      out.segments_.push_back(seg);
    }
  }
  return out;
}

bool AsPath::has_loop() const {
  // An AS may legitimately appear several times only as one consecutive run
  // (prepending). Detect any AS that starts a second, non-adjacent run.
  std::vector<Asn> seen;
  Asn prev = 0;
  bool first = true;
  for (const auto& seg : segments_) {
    if (seg.type != SegmentType::kSequence) {
      first = true;  // sets break adjacency tracking
      continue;
    }
    for (Asn a : seg.asns) {
      if (!first && a == prev) continue;
      if (std::find(seen.begin(), seen.end(), a) != seen.end()) return true;
      seen.push_back(a);
      prev = a;
      first = false;
    }
  }
  return false;
}

bool AsPath::has_bogon() const {
  for (const auto& seg : segments_) {
    if (seg.type != SegmentType::kSequence) continue;
    for (Asn a : seg.asns) {
      if (is_bogon_asn(a)) return true;
    }
  }
  return false;
}

std::vector<Asn> AsPath::flat() const {
  std::vector<Asn> out;
  for (const auto& seg : segments_) {
    out.insert(out.end(), seg.asns.begin(), seg.asns.end());
  }
  return out;
}

std::vector<AsRun> AsPath::runs_from_origin() const {
  const auto hops = flat();
  std::vector<AsRun> runs;
  for (auto it = hops.rbegin(); it != hops.rend(); ++it) {
    if (!runs.empty() && runs.back().asn == *it) {
      ++runs.back().count;
    } else {
      runs.push_back({*it, 1});
    }
  }
  return runs;
}

AsPath AsPath::stripped() const {
  AsPath out;
  for (const auto& seg : segments_) {
    if (seg.type == SegmentType::kSet) {
      out.segments_.push_back(seg);
      continue;
    }
    PathSegment dedup{SegmentType::kSequence, {}};
    for (Asn a : seg.asns) {
      if (dedup.asns.empty() || dedup.asns.back() != a) dedup.asns.push_back(a);
    }
    if (!dedup.asns.empty()) out.segments_.push_back(std::move(dedup));
  }
  return out;
}

int AsPath::unique_hop_count() const {
  const auto hops = flat();
  int count = 0;
  Asn prev = 0;
  bool first = true;
  for (Asn a : hops) {
    if (first || a != prev) ++count;
    prev = a;
    first = false;
  }
  return count;
}

void AsPath::prepend(Asn asn, int count) {
  assert(count >= 1);
  if (segments_.empty() || segments_.front().type != SegmentType::kSequence) {
    segments_.insert(segments_.begin(), {SegmentType::kSequence, {}});
  }
  auto& head = segments_.front().asns;
  head.insert(head.begin(), static_cast<std::size_t>(count), asn);
}

std::string AsPath::to_string() const {
  std::string out;
  for (const auto& seg : segments_) {
    if (!out.empty()) out += ' ';
    if (seg.type == SegmentType::kSet) out += '[';
    bool first = true;
    for (Asn a : seg.asns) {
      if (!first) out += ' ';
      out += std::to_string(a);
      first = false;
    }
    if (seg.type == SegmentType::kSet) out += ']';
  }
  return out;
}

namespace {

constexpr std::uint64_t kPathHashSeed = 0x5851f42d4c957f2dULL;

std::uint64_t segment_hash(std::uint64_t h, SegmentType type,
                           std::span<const Asn> asns) {
  h = hash_combine(h, static_cast<std::uint64_t>(type));
  return hash_combine(h, hash_row32(asns));
}

bool is_sequence_of(const AsPath& path, std::span<const Asn> asns) {
  const auto segs = path.segments();
  if (segs.empty()) return asns.empty();
  return segs.size() == 1 && segs[0].type == SegmentType::kSequence &&
         std::equal(segs[0].asns.begin(), segs[0].asns.end(), asns.begin(),
                    asns.end());
}

}  // namespace

std::uint64_t AsPath::hash() const {
  std::uint64_t h = kPathHashSeed;
  for (const auto& seg : segments_) h = segment_hash(h, seg.type, seg.asns);
  return h;
}

std::uint64_t AsPath::sequence_hash(std::span<const Asn> asns) {
  return asns.empty()
             ? kPathHashSeed
             : segment_hash(kPathHashSeed, SegmentType::kSequence, asns);
}

PathPool::PathPool() { intern(AsPath()); }  // id 0 == empty path

template <typename P>
PathPool::PathId PathPool::intern_path(P&& path) {
  const auto [id, fresh] = index_.intern(
      path.hash(), [&](PathId other) { return paths_[other] == path; });
  if (fresh) paths_.push_back(std::forward<P>(path));
  return id;
}

PathPool::PathId PathPool::intern(const AsPath& path) {
  return intern_path(path);
}

PathPool::PathId PathPool::intern(AsPath&& path) {
  return intern_path(std::move(path));
}

PathPool::PathId PathPool::intern_sequence(std::span<const Asn> asns) {
  const auto [id, fresh] =
      index_.intern(AsPath::sequence_hash(asns), [&](PathId other) {
        return is_sequence_of(paths_[other], asns);
      });
  if (fresh) paths_.push_back(AsPath::sequence({asns.begin(), asns.end()}));
  return id;
}

}  // namespace bgpatoms::net
