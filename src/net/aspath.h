// BGP AS-path model.
//
// Paths are stored in wire order: the AS nearest the receiving peer first,
// the origin AS last. Segments follow RFC 4271: AS_SEQUENCE segments carry
// ordered hops; AS_SET segments carry the unordered remainder produced by
// route aggregation ("1 2 [3 4 5]" in the paper's notation).
//
// A path is stored flat: its hops in one contiguous array plus, only for
// the rare path that is not a single AS_SEQUENCE, one SegmentBound per
// segment. PathView is the read side: a trivially copyable view over
// those two arrays that carries every query. PathPool keeps all its
// paths in one hop arena and hands out views into it; AsPath is the
// owning builder (parse, sequence, from_segments, prepend) and is itself
// a view of its own storage.
//
// The formation-distance analysis (paper §3.4) needs two derived views:
//   * runs_from_origin(): the path run-length encoded starting at the
//     origin, which keeps prepending visible as (asn, count) runs, and
//   * stripped(): consecutive duplicates removed (prepending collapsed).
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "net/asn.h"
#include "net/hash.h"
#include "net/id_index.h"

namespace bgpatoms::net {

enum class SegmentType : std::uint8_t { kSequence = 1, kSet = 2 };

/// An owned segment: the input of AsPath::from_segments.
struct PathSegment {
  SegmentType type = SegmentType::kSequence;
  std::vector<Asn> asns;
};

/// One segment of a viewed path.
struct SegmentView {
  SegmentType type = SegmentType::kSequence;
  std::span<const Asn> asns;
};

/// Where a segment of a flat path ends: `end` counts the path's hops up to
/// and including the segment.
struct SegmentBound {
  SegmentType type = SegmentType::kSequence;
  std::uint32_t end = 0;

  friend bool operator==(const SegmentBound&, const SegmentBound&) = default;
};

/// One run of a run-length-encoded path: `count` consecutive copies of `asn`.
struct AsRun {
  Asn asn = 0;
  std::uint32_t count = 1;

  friend auto operator<=>(const AsRun&, const AsRun&) = default;
};

/// The segments of a PathView, as SegmentViews.
class SegmentRange {
 public:
  class iterator;

  SegmentRange() = default;
  SegmentRange(const Asn* hops, std::uint32_t n_hops,
               const SegmentBound* bounds, std::uint32_t n_bounds)
      : hops_(hops), bounds_(bounds), n_hops_(n_hops), n_bounds_(n_bounds) {}

  /// One segment when the path has hops but no bounds.
  std::size_t size() const {
    return n_bounds_ != 0 ? n_bounds_ : (n_hops_ != 0 ? 1 : 0);
  }
  SegmentView operator[](std::size_t i) const {
    if (n_bounds_ == 0) return {SegmentType::kSequence, {hops_, n_hops_}};
    const std::uint32_t begin = i == 0 ? 0 : bounds_[i - 1].end;
    return {bounds_[i].type, {hops_ + begin, bounds_[i].end - begin}};
  }
  iterator begin() const;
  iterator end() const;

 private:
  const Asn* hops_ = nullptr;
  const SegmentBound* bounds_ = nullptr;
  std::uint32_t n_hops_ = 0;
  std::uint32_t n_bounds_ = 0;
};

class SegmentRange::iterator {
 public:
  using value_type = SegmentView;
  using difference_type = std::ptrdiff_t;
  iterator() = default;
  iterator(const SegmentRange& r, std::size_t i) : r_(r), i_(i) {}
  SegmentView operator*() const { return r_[i_]; }
  iterator& operator++() {
    ++i_;
    return *this;
  }
  iterator operator++(int) {
    iterator t = *this;
    ++i_;
    return t;
  }
  bool operator==(const iterator& o) const { return i_ == o.i_; }

 private:
  SegmentRange r_;
  std::size_t i_ = 0;
};

inline SegmentRange::iterator SegmentRange::begin() const {
  return {*this, 0};
}
inline SegmentRange::iterator SegmentRange::end() const {
  return {*this, size()};
}

class AsPath;

/// Read-only view of one path. Valid while the storage it views lives and
/// is not appended to (a PathPool's arena, an AsPath). A path that is one
/// AS_SEQUENCE, or empty, has no bounds.
class PathView {
 public:
  /// The empty path.
  PathView() = default;

  /// A view of `hops` split by `bounds` (empty for one AS_SEQUENCE).
  PathView(std::span<const Asn> hops, std::span<const SegmentBound> bounds);

  bool empty() const { return shape_.n_hops == 0; }

  /// Every hop in wire order; AS_SET members appear in stored order.
  std::span<const Asn> hops() const { return {hops_, shape_.n_hops}; }
  /// Empty for a path that is one AS_SEQUENCE, or empty.
  std::span<const SegmentBound> bounds() const {
    return {bounds_, shape_.n_bounds};
  }
  SegmentRange segments() const {
    return {hops_, shape_.n_hops, bounds_, shape_.n_bounds};
  }

  /// Number of hops with AS_SET counting as a single hop (RFC 4271 path
  /// length semantics used for best-path selection).
  int selection_length() const {
    return static_cast<int>(shape_.selection_length);
  }

  /// Origin AS: the last AS of the path if it ends in an AS_SEQUENCE or a
  /// singleton AS_SET; nullopt when the path ends in a multi-member AS_SET
  /// (origin unknown after aggregation) or is empty.
  std::optional<Asn> origin() const {
    if (!shape_.has_origin) return std::nullopt;
    return shape_.origin;
  }

  /// First AS of the path (the peer's own AS for collector-learned paths).
  std::optional<Asn> head() const {
    if (shape_.n_hops == 0) return std::nullopt;
    return hops_[0];
  }

  /// True if any segment is an AS_SET.
  bool has_set() const { return shape_.has_set; }

  /// True if every AS_SET segment has exactly one member.
  bool sets_all_singleton() const;

  /// Copy with singleton AS_SETs rewritten as sequence hops (the paper's
  /// §2.4.4 expansion rule). Multi-member sets are left untouched; callers
  /// drop such paths.
  AsPath with_singleton_sets_expanded() const;

  /// True if some AS appears in two non-adjacent positions (routing loop or
  /// poisoning artifact). AS_SET members are ignored.
  bool has_loop() const;

  /// True if any sequence hop is a bogon (private/reserved/documentation)
  /// ASN.
  bool has_bogon() const;

  /// hops() as an owned vector.
  std::vector<Asn> flat() const { return {hops_, hops_ + shape_.n_hops}; }

  /// Run-length encoding starting from the ORIGIN (reverse of wire order).
  /// Only valid for pure-sequence paths; AS_SETs are flattened in place.
  std::vector<AsRun> runs_from_origin() const;

  /// Copy with consecutive duplicate hops removed (prepending collapsed).
  AsPath stripped() const;

  /// Number of distinct consecutive runs (== stripped length).
  int unique_hop_count() const;

  /// "1 2 [3 4 5]" notation; empty path renders as "".
  std::string to_string() const;

  /// Stable content hash (used by PathPool).
  std::uint64_t hash() const;

  /// Structural equality: same hops split into the same segments.
  friend bool operator==(const PathView& a, const PathView& b);
  /// Segment by segment: type first, then the hops lexicographically.
  friend std::strong_ordering operator<=>(const PathView& a,
                                          const PathView& b);

 protected:
  friend class PathPool;

  /// Derived once per path and kept beside it, so the hot queries read no
  /// hops.
  struct Shape {
    std::uint32_t n_hops = 0;
    std::uint32_t n_bounds = 0;
    std::uint32_t selection_length = 0;
    Asn origin = 0;
    bool has_origin = false;
    bool has_set = false;

    static Shape of(std::span<const Asn> hops,
                    std::span<const SegmentBound> bounds);
  };

  PathView(const Asn* hops, const SegmentBound* bounds, const Shape& shape)
      : hops_(hops), bounds_(bounds), shape_(shape) {}

 private:
  const Asn* hops_ = nullptr;
  const SegmentBound* bounds_ = nullptr;
  Shape shape_;
};

static_assert(std::is_trivially_copyable_v<PathView>);

/// An owned path: the builder behind parsing, decoding and tests. Its
/// PathView base always views its own storage.
class AsPath : public PathView {
 public:
  AsPath() = default;
  AsPath(const AsPath& other);
  AsPath(AsPath&& other) noexcept;
  AsPath& operator=(const AsPath& other);
  AsPath& operator=(AsPath&& other) noexcept;
  /// An owned copy of `view`.
  explicit AsPath(PathView view);

  /// A pure AS_SEQUENCE path, peer-side first, origin last.
  static AsPath sequence(std::vector<Asn> asns);

  /// A path from explicit segments (empty segments are dropped).
  static AsPath from_segments(std::vector<PathSegment> segments);

  /// Parses the paper's textual notation: space-separated ASNs with
  /// bracketed AS_SETs, e.g. "1 2 [3 4 5]". Returns nullopt on error.
  static std::optional<AsPath> parse(std::string_view text);

  /// hash() of AsPath::sequence(asns), computed without building it.
  static std::uint64_t sequence_hash(std::span<const Asn> asns);

  /// Appends a segment (nothing when `asns` is empty).
  void append_segment(SegmentType type, std::span<const Asn> asns);

  /// Prepends `count` copies of `asn` at the head (the AS applying policy
  /// toward its neighbor). count >= 1.
  void prepend(Asn asn, int count = 1);

 private:
  void sync();  // re-points the PathView base after a change

  std::vector<Asn> hop_store_;
  std::vector<SegmentBound> bound_store_;  // empty for one AS_SEQUENCE
};

/// Interning pool mapping equal paths to dense 32-bit ids, in first-sight
/// order.
///
/// Id 0 is reserved for the empty path, so "prefix missing at this vantage
/// point" can be encoded as path id 0 throughout the analysis layer. Every
/// path lives in one hop arena (plus one bound arena for the rare
/// multi-segment path); get() returns a view into it. A lookup that finds
/// its path allocates nothing; see net::IdIndex. Copying a pool is a
/// handful of vector copies.
class PathPool {
 public:
  using PathId = std::uint32_t;
  static constexpr PathId kEmptyPathId = 0;

  PathPool();

  /// Returns the id for `path`, interning it on first sight.
  PathId intern(PathView path);

  /// intern(src.get(id)), reusing the hash `src` stored for it.
  PathId intern(const PathPool& src, PathId id);

  /// intern(AsPath::sequence({asns...})), building nothing when the path
  /// is already in the pool.
  PathId intern_sequence(std::span<const Asn> asns);

  /// In-place interning for decoders: begin_path() drops any unfinished
  /// path, append_segment() extends it at the arena's end (the caller
  /// fills the returned hops; an empty segment is dropped) and end_path()
  /// interns it, rolling the arena back when the path was already there.
  void begin_path();
  std::span<Asn> append_segment(SegmentType type, std::size_t n);
  PathId end_path();

  /// Views stay valid until the next interning of a new path.
  PathView get(PathId id) const {
    const Entry& e = entries_[id];
    return PathView(hops_.data() + e.hop_begin, bounds_.data() + e.bound_begin,
                    e.shape);
  }
  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::uint32_t hop_begin = 0;
    std::uint32_t bound_begin = 0;
    PathView::Shape shape;
  };

  PathId intern_hashed(std::uint64_t hash, PathView path);
  /// Records the path whose hops and bounds start at the given offsets and
  /// run to the arenas' ends as the next id.
  void commit(std::size_t hop_begin, std::size_t bound_begin,
              const PathView::Shape& shape);
  /// Where the last recorded path ends in each arena.
  std::size_t committed_hops() const {
    return entries_.back().hop_begin + entries_.back().shape.n_hops;
  }
  std::size_t committed_bounds() const {
    return entries_.back().bound_begin + entries_.back().shape.n_bounds;
  }

  std::vector<Asn> hops_;             // every path's hops, back to back
  std::vector<SegmentBound> bounds_;  // bounds of multi-segment paths
  std::vector<Entry> entries_;        // per id
  IdIndex index_;  // content hash -> id; full equality re-checked on hit
};

}  // namespace bgpatoms::net
