// BGP AS-path model.
//
// Paths are stored in wire order: the AS nearest the receiving peer first,
// the origin AS last. Segments follow RFC 4271: AS_SEQUENCE segments carry
// ordered hops; AS_SET segments carry the unordered remainder produced by
// route aggregation ("1 2 [3 4 5]" in the paper's notation).
//
// The formation-distance analysis (paper §3.4) needs two derived views:
//   * runs_from_origin(): the path run-length encoded starting at the
//     origin, which keeps prepending visible as (asn, count) runs, and
//   * stripped(): consecutive duplicates removed (prepending collapsed).
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "net/asn.h"
#include "net/hash.h"
#include "net/id_index.h"

namespace bgpatoms::net {

enum class SegmentType : std::uint8_t { kSequence = 1, kSet = 2 };

struct PathSegment {
  SegmentType type = SegmentType::kSequence;
  std::vector<Asn> asns;

  friend auto operator<=>(const PathSegment&, const PathSegment&) = default;
};

/// One run of a run-length-encoded path: `count` consecutive copies of `asn`.
struct AsRun {
  Asn asn = 0;
  std::uint16_t count = 1;

  friend auto operator<=>(const AsRun&, const AsRun&) = default;
};

class AsPath {
 public:
  AsPath() = default;

  /// A pure AS_SEQUENCE path, peer-side first, origin last.
  static AsPath sequence(std::vector<Asn> asns);

  /// A path from explicit segments (empty segments are dropped).
  static AsPath from_segments(std::vector<PathSegment> segments);

  /// Parses the paper's textual notation: space-separated ASNs with
  /// bracketed AS_SETs, e.g. "1 2 [3 4 5]". Returns nullopt on error.
  static std::optional<AsPath> parse(std::string_view text);

  bool empty() const { return segments_.empty(); }
  std::span<const PathSegment> segments() const { return segments_; }

  /// Number of hops with AS_SET counting as a single hop (RFC 4271 path
  /// length semantics used for best-path selection).
  int selection_length() const;

  /// Origin AS: the last AS of the path if it ends in an AS_SEQUENCE or a
  /// singleton AS_SET; nullopt when the path ends in a multi-member AS_SET
  /// (origin unknown after aggregation) or is empty.
  std::optional<Asn> origin() const;

  /// First AS of the path (the peer's own AS for collector-learned paths).
  std::optional<Asn> head() const;

  /// True if any segment is an AS_SET.
  bool has_set() const;

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

  /// Flat hop list in wire order; AS_SET members appear in stored order.
  /// Intended for pure-sequence paths (the common case after sanitizing).
  std::vector<Asn> flat() const;

  /// Run-length encoding starting from the ORIGIN (reverse of wire order).
  /// Only valid for pure-sequence paths; AS_SETs are flattened in place.
  std::vector<AsRun> runs_from_origin() const;

  /// Copy with consecutive duplicate hops removed (prepending collapsed).
  AsPath stripped() const;

  /// Number of distinct consecutive runs (== stripped length).
  int unique_hop_count() const;

  /// Prepends `count` copies of `asn` at the head (the AS applying policy
  /// toward its neighbor). count >= 1.
  void prepend(Asn asn, int count = 1);

  /// "1 2 [3 4 5]" notation; empty path renders as "".
  std::string to_string() const;

  /// Stable content hash (used by PathPool).
  std::uint64_t hash() const;

  /// hash() of AsPath::sequence(asns), computed without building it.
  static std::uint64_t sequence_hash(std::span<const Asn> asns);

  friend auto operator<=>(const AsPath&, const AsPath&) = default;

 private:
  std::vector<PathSegment> segments_;
};

/// Interning pool mapping equal paths to dense 32-bit ids, in first-sight
/// order.
///
/// Id 0 is reserved for the empty path, so "prefix missing at this vantage
/// point" can be encoded as path id 0 throughout the analysis layer. A
/// lookup that finds its path allocates nothing; see net::IdIndex.
class PathPool {
 public:
  using PathId = std::uint32_t;
  static constexpr PathId kEmptyPathId = 0;

  PathPool();

  /// Returns the id for `path`, interning it on first sight.
  PathId intern(const AsPath& path);
  PathId intern(AsPath&& path);

  /// intern(AsPath::sequence({asns...})), building the path only when it
  /// is new to the pool.
  PathId intern_sequence(std::span<const Asn> asns);

  const AsPath& get(PathId id) const { return paths_[id]; }
  std::size_t size() const { return paths_.size(); }

 private:
  template <typename P>
  PathId intern_path(P&& path);  // copies or moves `path` only when new

  std::vector<AsPath> paths_;
  IdIndex index_;  // content hash -> id; full equality re-checked on hit
};

}  // namespace bgpatoms::net
