#include "net/aspath.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <functional>
#include <stdexcept>
#include <utility>

namespace bgpatoms::net {

namespace {

constexpr std::uint64_t kPathHashSeed = 0x5851f42d4c957f2dULL;

std::uint64_t segment_hash(std::uint64_t h, SegmentType type,
                           std::span<const Asn> asns) {
  h = hash_combine(h, static_cast<std::uint64_t>(type));
  return hash_combine(h, hash_row32(asns));
}

/// Opens a segment of `n` zeroed hops at the end of the path whose hops
/// and bounds start at `hop_begin`/`bound_begin` and run to the ends of
/// the two arrays, keeping the bounds canonical (none for a path that is
/// one AS_SEQUENCE). Returns the offset of the segment's first hop.
std::size_t open_segment(std::vector<Asn>& hops,
                         std::vector<SegmentBound>& bounds,
                         std::size_t hop_begin, std::size_t bound_begin,
                         SegmentType type, std::size_t n) {
  const std::size_t at = hops.size();
  if (n == 0) return at;
  if (bounds.size() == bound_begin && at > hop_begin) {
    // The path so far is one sequence: give it its bound.
    bounds.push_back(
        {SegmentType::kSequence, static_cast<std::uint32_t>(at - hop_begin)});
  }
  hops.resize(at + n);
  bounds.push_back({type, static_cast<std::uint32_t>(at + n - hop_begin)});
  if (bounds.size() - bound_begin == 1 && type == SegmentType::kSequence) {
    bounds.pop_back();
  }
  return at;
}

/// Appends `src` to `v`; `src` may lie inside `v` itself.
template <typename T>
void append_from(std::vector<T>& v, std::span<const T> src) {
  const T* base = v.data();
  const bool inside = !src.empty() &&
                      !std::less<const T*>()(src.data(), base) &&
                      std::less<const T*>()(src.data(), base + v.size());
  const std::size_t offset =
      inside ? static_cast<std::size_t>(src.data() - base) : 0;
  const std::size_t at = v.size();
  v.resize(at + src.size());
  const T* from = inside ? v.data() + offset : src.data();
  std::copy_n(from, src.size(), v.begin() + static_cast<std::ptrdiff_t>(at));
}

}  // namespace

// --- PathView ---------------------------------------------------------------

PathView::Shape PathView::Shape::of(std::span<const Asn> hops,
                                    std::span<const SegmentBound> bounds) {
  Shape s;
  s.n_hops = static_cast<std::uint32_t>(hops.size());
  s.n_bounds = static_cast<std::uint32_t>(bounds.size());
  if (hops.empty()) return s;
  if (bounds.empty()) {
    s.selection_length = s.n_hops;
    s.origin = hops.back();
    s.has_origin = true;
    return s;
  }
  std::uint32_t begin = 0;
  for (const SegmentBound& b : bounds) {
    const bool set = b.type == SegmentType::kSet;
    s.selection_length += set ? 1 : b.end - begin;
    s.has_set = s.has_set || set;
    // The last segment decides: a sequence or a singleton set names the
    // origin, an aggregated set leaves it unknown.
    s.has_origin = !set || b.end - begin == 1;
    begin = b.end;
  }
  if (s.has_origin) s.origin = hops.back();
  return s;
}

PathView::PathView(std::span<const Asn> hops,
                   std::span<const SegmentBound> bounds)
    : hops_(hops.data()), bounds_(bounds.data()),
      shape_(Shape::of(hops, bounds)) {}

bool PathView::sets_all_singleton() const {
  const SegmentRange segs = segments();
  return std::all_of(segs.begin(), segs.end(), [](const SegmentView& s) {
    return s.type == SegmentType::kSequence || s.asns.size() == 1;
  });
}

AsPath PathView::with_singleton_sets_expanded() const {
  AsPath out;
  std::vector<Asn> run;  // sequence hops not yet appended
  for (const SegmentView seg : segments()) {
    if (seg.type == SegmentType::kSequence || seg.asns.size() == 1) {
      run.insert(run.end(), seg.asns.begin(), seg.asns.end());
    } else {
      out.append_segment(SegmentType::kSequence, run);
      run.clear();
      out.append_segment(SegmentType::kSet, seg.asns);
    }
  }
  out.append_segment(SegmentType::kSequence, run);
  return out;
}

bool PathView::has_loop() const {
  // An AS may legitimately appear several times only as one consecutive run
  // (prepending). Detect any AS that starts a second, non-adjacent run.
  std::vector<Asn> seen;
  Asn prev = 0;
  bool first = true;
  for (const SegmentView seg : segments()) {
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

bool PathView::has_bogon() const {
  for (const SegmentView seg : segments()) {
    if (seg.type != SegmentType::kSequence) continue;
    for (Asn a : seg.asns) {
      if (is_bogon_asn(a)) return true;
    }
  }
  return false;
}

std::vector<AsRun> PathView::runs_from_origin() const {
  const auto h = hops();
  std::vector<AsRun> runs;
  for (auto it = h.rbegin(); it != h.rend(); ++it) {
    if (!runs.empty() && runs.back().asn == *it) {
      ++runs.back().count;
    } else {
      runs.push_back({*it, 1});
    }
  }
  return runs;
}

AsPath PathView::stripped() const {
  AsPath out;
  std::vector<Asn> dedup;
  for (const SegmentView seg : segments()) {
    if (seg.type == SegmentType::kSet) {
      out.append_segment(SegmentType::kSet, seg.asns);
      continue;
    }
    dedup.clear();
    for (Asn a : seg.asns) {
      if (dedup.empty() || dedup.back() != a) dedup.push_back(a);
    }
    out.append_segment(SegmentType::kSequence, dedup);
  }
  return out;
}

int PathView::unique_hop_count() const {
  int count = 0;
  Asn prev = 0;
  bool first = true;
  for (Asn a : hops()) {
    if (first || a != prev) ++count;
    prev = a;
    first = false;
  }
  return count;
}

std::string PathView::to_string() const {
  std::string out;
  for (const SegmentView seg : segments()) {
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

std::uint64_t PathView::hash() const {
  std::uint64_t h = kPathHashSeed;
  for (const SegmentView seg : segments()) {
    h = segment_hash(h, seg.type, seg.asns);
  }
  return h;
}

bool operator==(const PathView& a, const PathView& b) {
  const auto ha = a.hops();
  const auto hb = b.hops();
  const auto ba = a.bounds();
  const auto bb = b.bounds();
  return std::equal(ha.begin(), ha.end(), hb.begin(), hb.end()) &&
         std::equal(ba.begin(), ba.end(), bb.begin(), bb.end());
}

std::strong_ordering operator<=>(const PathView& a, const PathView& b) {
  const auto sa = a.segments();
  const auto sb = b.segments();
  const std::size_t n = std::min(sa.size(), sb.size());
  for (std::size_t i = 0; i < n; ++i) {
    const SegmentView x = sa[i];
    const SegmentView y = sb[i];
    if (const auto c = x.type <=> y.type; c != 0) return c;
    if (const auto c = std::lexicographical_compare_three_way(
            x.asns.begin(), x.asns.end(), y.asns.begin(), y.asns.end());
        c != 0) {
      return c;
    }
  }
  return sa.size() <=> sb.size();
}

// --- AsPath -----------------------------------------------------------------

AsPath::AsPath(const AsPath& other)
    : PathView(), hop_store_(other.hop_store_),
      bound_store_(other.bound_store_) {
  sync();
}

AsPath::AsPath(AsPath&& other) noexcept
    : PathView(), hop_store_(std::move(other.hop_store_)),
      bound_store_(std::move(other.bound_store_)) {
  sync();
  other.hop_store_.clear();
  other.bound_store_.clear();
  other.sync();
}

AsPath& AsPath::operator=(const AsPath& other) {
  if (this != &other) {
    hop_store_ = other.hop_store_;
    bound_store_ = other.bound_store_;
    sync();
  }
  return *this;
}

AsPath& AsPath::operator=(AsPath&& other) noexcept {
  if (this != &other) {
    hop_store_ = std::move(other.hop_store_);
    bound_store_ = std::move(other.bound_store_);
    sync();
    other.hop_store_.clear();
    other.bound_store_.clear();
    other.sync();
  }
  return *this;
}

AsPath::AsPath(PathView view)
    : hop_store_(view.hops().begin(), view.hops().end()),
      bound_store_(view.bounds().begin(), view.bounds().end()) {
  sync();
}

void AsPath::sync() {
  static_cast<PathView&>(*this) = PathView(hop_store_, bound_store_);
}

AsPath AsPath::sequence(std::vector<Asn> asns) {
  AsPath p;
  p.hop_store_ = std::move(asns);
  p.sync();
  return p;
}

AsPath AsPath::from_segments(std::vector<PathSegment> segments) {
  AsPath p;
  for (const auto& seg : segments) p.append_segment(seg.type, seg.asns);
  return p;
}

void AsPath::append_segment(SegmentType type, std::span<const Asn> asns) {
  const std::size_t at =
      open_segment(hop_store_, bound_store_, 0, 0, type, asns.size());
  std::copy(asns.begin(), asns.end(),
            hop_store_.begin() + static_cast<std::ptrdiff_t>(at));
  sync();
}

std::optional<AsPath> AsPath::parse(std::string_view text) {
  AsPath path;
  std::vector<Asn> current;
  bool in_set = false;

  std::size_t i = 0;
  while (i < text.size()) {
    const char c = text[i];
    if (c == ' ' || c == '\t') {
      ++i;
    } else if (c == '[') {
      if (in_set) return std::nullopt;
      path.append_segment(SegmentType::kSequence, current);
      current.clear();
      in_set = true;
      ++i;
    } else if (c == ']') {
      if (!in_set || current.empty()) return std::nullopt;
      path.append_segment(SegmentType::kSet, current);
      current.clear();
      in_set = false;
      ++i;
    } else if (c >= '0' && c <= '9') {
      Asn asn = 0;
      auto [p, ec] =
          std::from_chars(text.data() + i, text.data() + text.size(), asn);
      if (ec != std::errc()) return std::nullopt;
      current.push_back(asn);
      i = static_cast<std::size_t>(p - text.data());
    } else {
      return std::nullopt;
    }
  }
  if (in_set) return std::nullopt;
  path.append_segment(SegmentType::kSequence, current);
  return path;
}

void AsPath::prepend(Asn asn, int count) {
  assert(count >= 1);
  const auto n = static_cast<std::uint32_t>(count);
  hop_store_.insert(hop_store_.begin(), n, asn);
  // Without bounds the path is one sequence, which the new hops join; so
  // do they a leading sequence segment, while a leading set gets a new
  // sequence segment in front of it.
  if (!bound_store_.empty()) {
    for (SegmentBound& b : bound_store_) b.end += n;
    if (bound_store_.front().type != SegmentType::kSequence) {
      bound_store_.insert(bound_store_.begin(), {SegmentType::kSequence, n});
    }
  }
  sync();
}

std::uint64_t AsPath::sequence_hash(std::span<const Asn> asns) {
  return asns.empty()
             ? kPathHashSeed
             : segment_hash(kPathHashSeed, SegmentType::kSequence, asns);
}

// --- PathPool ---------------------------------------------------------------

PathPool::PathPool() { intern(PathView()); }  // id 0 == empty path

void PathPool::commit(std::size_t hop_begin, std::size_t bound_begin,
                      const PathView::Shape& shape) {
  if (hops_.size() > UINT32_MAX || bounds_.size() > UINT32_MAX) {
    throw std::length_error("PathPool: arena exceeds 2^32 entries");
  }
  entries_.push_back({static_cast<std::uint32_t>(hop_begin),
                      static_cast<std::uint32_t>(bound_begin), shape});
}

PathPool::PathId PathPool::intern_hashed(std::uint64_t hash, PathView path) {
  const auto [id, fresh] =
      index_.intern(hash, [&](PathId other) { return get(other) == path; });
  if (fresh) {
    const std::size_t hop_begin = hops_.size();
    const std::size_t bound_begin = bounds_.size();
    append_from(hops_, path.hops());
    append_from(bounds_, path.bounds());
    commit(hop_begin, bound_begin, path.shape_);
  }
  return id;
}

PathPool::PathId PathPool::intern(PathView path) {
  return intern_hashed(path.hash(), path);
}

PathPool::PathId PathPool::intern(const PathPool& src, PathId id) {
  return intern_hashed(src.index_.hash(id), src.get(id));
}

PathPool::PathId PathPool::intern_sequence(std::span<const Asn> asns) {
  const auto [id, fresh] =
      index_.intern(AsPath::sequence_hash(asns), [&](PathId other) {
        const Entry& e = entries_[other];
        return e.shape.n_bounds == 0 && e.shape.n_hops == asns.size() &&
               std::equal(asns.begin(), asns.end(),
                          hops_.begin() + e.hop_begin);
      });
  if (fresh) {
    const std::size_t hop_begin = hops_.size();
    append_from(hops_, asns);
    commit(hop_begin, bounds_.size(), PathView::Shape::of(asns, {}));
  }
  return id;
}

void PathPool::begin_path() {
  hops_.resize(committed_hops());
  bounds_.resize(committed_bounds());
}

std::span<Asn> PathPool::append_segment(SegmentType type, std::size_t n) {
  const std::size_t at = open_segment(hops_, bounds_, committed_hops(),
                                      committed_bounds(), type, n);
  return {hops_.data() + at, n};
}

PathPool::PathId PathPool::end_path() {
  const std::size_t hop_begin = committed_hops();
  const std::size_t bound_begin = committed_bounds();
  const PathView staged(
      std::span<const Asn>(hops_).subspan(hop_begin),
      std::span<const SegmentBound>(bounds_).subspan(bound_begin));
  const auto [id, fresh] = index_.intern(
      staged.hash(), [&](PathId other) { return get(other) == staged; });
  if (fresh) {
    commit(hop_begin, bound_begin, staged.shape_);
  } else {
    hops_.resize(hop_begin);
    bounds_.resize(bound_begin);
  }
  return id;
}

}  // namespace bgpatoms::net
