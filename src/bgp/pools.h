// Interning pools for prefixes and community sets.
//
// Record structs reference prefixes / community sets by dense 32-bit ids so
// snapshots with millions of rows stay compact. Pools are append-only;
// ids are stable for the lifetime of the owning dataset.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/hash.h"
#include "net/id_index.h"
#include "net/prefix.h"

namespace bgpatoms::bgp {

class PrefixPool {
 public:
  std::uint32_t intern(const net::Prefix& p) {
    auto [it, fresh] =
        index_.emplace(p, static_cast<std::uint32_t>(prefixes_.size()));
    if (fresh) prefixes_.push_back(p);
    return it->second;
  }

  /// Returns the id of `p` or UINT32_MAX when absent (no interning).
  std::uint32_t find(const net::Prefix& p) const {
    const auto it = index_.find(p);
    return it == index_.end() ? UINT32_MAX : it->second;
  }

  const net::Prefix& get(std::uint32_t id) const { return prefixes_[id]; }
  std::size_t size() const { return prefixes_.size(); }

 private:
  std::vector<net::Prefix> prefixes_;
  std::unordered_map<net::Prefix, std::uint32_t, net::PrefixHash> index_;
};

/// A BGP community value: (ASN << 16) | value, RFC 1997 layout.
using Community = std::uint32_t;

constexpr Community make_community(std::uint16_t asn, std::uint16_t value) {
  return (static_cast<Community>(asn) << 16) | value;
}
constexpr std::uint16_t community_asn(Community c) {
  return static_cast<std::uint16_t>(c >> 16);
}
constexpr std::uint16_t community_value(Community c) {
  return static_cast<std::uint16_t>(c & 0xffff);
}

/// Pool of canonical (sorted, deduplicated) community sets. Id 0 is the
/// empty set.
class CommunitySetPool {
 public:
  CommunitySetPool() { intern({}); }  // id 0 == empty set

  std::uint32_t intern(std::vector<Community> set) {
    std::sort(set.begin(), set.end());
    set.erase(std::unique(set.begin(), set.end()), set.end());
    const auto [id, fresh] =
        index_.intern(hash_span<Community>(set),
                      [&](std::uint32_t other) { return sets_[other] == set; });
    if (fresh) sets_.push_back(std::move(set));
    return id;
  }

  const std::vector<Community>& get(std::uint32_t id) const {
    return sets_[id];
  }
  std::size_t size() const { return sets_.size(); }

 private:
  std::vector<std::vector<Community>> sets_;
  net::IdIndex index_;  // content hash -> id; full equality re-checked
};

}  // namespace bgpatoms::bgp
