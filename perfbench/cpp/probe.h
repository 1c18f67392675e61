// The query half of the benchmark: seeded request plans, an in-process
// ServeState::handle pass over an AtomIndex, and the linear-scan
// longest-prefix-match oracle that checks replies. Traced runs take the
// query layer's per-op costs from it; every run checks replies with it.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "pipeline.h"
#include "query/serve.h"

namespace perfbench {

enum Op : std::uint8_t { kLookup = 0, kEquiv = 1, kHistory = 2, kStats = 3 };
inline constexpr std::array<const char*, 4> kOpNames = {"lookup", "equiv",
                                                        "history", "stats"};

/// A seeded request mix: about 70% lookup (stored prefixes, bare addresses
/// and class-E misses), 15% equiv, 10% history and 5% stats.
struct Plan {
  std::vector<std::string> requests;
  std::vector<Op> ops;
};

Plan make_plan(const Truth& truth, std::size_t n, std::uint64_t seed);

/// One in-process pass over the plan through ServeState::handle, each
/// request under a "query.handle.<op>" span.
struct HandleResult {
  double seconds = 0;
  /// handle() latency samples in nanoseconds, one vector per Op.
  std::array<std::vector<std::uint64_t>, 4> latencies;
  double lookup_reply_bytes = 0;  // mean bytes of a lookup reply
};

HandleResult handle_pass(const bgpatoms::query::ServeState& state,
                         const Plan& plan, Tracer& tracer, Checks& checks);

/// Re-derives a sample of lookup/equiv replies from a linear scan over the
/// truth's prefixes (longest covering prefix, compute_atoms' atom id).
void check_with_oracle(const bgpatoms::query::ServeState& state,
                       const Plan& plan, const Truth& truth,
                       std::size_t sample, Checks& checks);

/// Mean AtomIndex::lookup cost in microseconds over the plan's lookups:
/// the median of several timed sweeps.
double index_lookup_us(const bgpatoms::query::AtomIndex& index,
                       const Plan& plan);

}  // namespace perfbench
