// Flat hash index over an append-only pool of interned values.
//
// The interning pools (net::PathPool, bgp::CommunitySetPool) store their
// values in a vector and hand out the vector index as a dense id, in
// first-sight order. IdIndex maps a value's 64-bit content hash to that id
// without allocating per entry: an open-addressing table of ids
// (power-of-two slots, linear probing, load <= 0.5) plus one hash per id.
// The per-id hashes let the table grow without rehashing the values and
// let most probe mismatches skip the pool's full equality check; a pool
// re-interning another pool's value reuses the stored hash. Copying an
// index is two vector copies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/hash.h"

namespace bgpatoms::net {

class IdIndex {
 public:
  using Id = std::uint32_t;

  /// Looks up a value with content hash `hash`; `equal(id)` compares the
  /// pool's value `id` with it. Returns {id, false} on a hit. On a miss
  /// records the next id (the number of ids recorded so far) and returns
  /// {it, true}: the caller must then append the value to its pool.
  template <typename Equal>
  std::pair<Id, bool> intern(std::uint64_t hash, Equal&& equal) {
    if (2 * (hashes_.size() + 1) > slots_.size()) grow();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = mix64(hash) & mask;; i = (i + 1) & mask) {
      const Id id = slots_[i];
      if (id == kFree) {
        slots_[i] = static_cast<Id>(hashes_.size());
        hashes_.push_back(hash);
        return {slots_[i], true};
      }
      if (hashes_[id] == hash && equal(id)) return {id, false};
    }
  }

  /// The content hash recorded for `id`.
  std::uint64_t hash(Id id) const { return hashes_[id]; }

 private:
  static constexpr Id kFree = UINT32_MAX;

  void grow() {
    std::vector<Id> slots(slots_.empty() ? 16 : 2 * slots_.size(), kFree);
    const std::size_t mask = slots.size() - 1;
    for (Id id = 0; id < hashes_.size(); ++id) {
      std::size_t i = mix64(hashes_[id]) & mask;
      while (slots[i] != kFree) i = (i + 1) & mask;
      slots[i] = id;
    }
    slots_ = std::move(slots);
  }

  std::vector<Id> slots_;             // kFree or an id; size is 0 or 2^k
  std::vector<std::uint64_t> hashes_;  // content hash per id
};

}  // namespace bgpatoms::net
