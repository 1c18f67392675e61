// Host-speed reference for the timed phases. On a host that other tenants
// share, the same pass runs up to 1.5x slower for spells of minutes, far
// longer than a run. A fixed reference kernel timed on the same CPU right
// before and after each timed piece of work slows down with it, so the
// benchmark reports every time scaled to a nominal host speed:
//
//   scaled = raw * kReferenceNominalS / reference
//
// The kernel is the benchmark's own code (string formatting, allocation and
// sorting, like much of the pipeline's own work), so a change to the
// library never changes it. The raw times are printed on stderr beside the
// scaled ones.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cpus.h"
#include "stats.h"
#include "tracer.h"

namespace perfbench {

/// The reference kernel's time on the nominal host: about its time on the
/// 2.1 GHz Xeon virtual machine the benchmark was tuned on.
inline constexpr double kReferenceNominalS = 6e-3;

/// One run of the reference kernel: formats 20,000 pseudo-random integers
/// and sorts the strings. Returns its seconds.
inline double reference_once() {
  const std::uint64_t t0 = now_ns();
  std::vector<std::string> words;
  words.reserve(20'000);
  std::uint64_t x = 5;
  for (int i = 0; i < 20'000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    words.push_back(std::to_string(x >> 17));
  }
  std::sort(words.begin(), words.end());
  // Keeps the strings observable so the work cannot be optimized away.
  if (words[words.size() / 2].empty()) {
    std::fprintf(stderr, "perfbench: empty reference word\n");
  }
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

/// The host's current reference time: the best of three runs.
inline double reference_seconds() {
  double best = reference_once();
  for (int k = 0; k < 2; ++k) best = std::min(best, reference_once());
  return best;
}

/// One timed piece of work: its own measured seconds and the reference
/// time around it.
struct Timed {
  double raw_s = 0;
  double reference_s = 0;

  double scaled_s() const { return raw_s * kReferenceNominalS / reference_s; }
};

/// Runs `work` (which returns its measured seconds) pinned to the k-th
/// allowed CPU, with the reference timed on that CPU before and after. The
/// calling thread stays pinned; unpin() when the timed phase ends.
template <typename Work>
Timed timed_on_cpu(std::size_t k, Work&& work) {
  pin_to_cpu(k);
  const double before = reference_seconds();
  const double raw = work();
  const double after = reference_seconds();
  return {raw, 0.5 * (before + after)};
}

/// Medians of the scaled times, raw times and reference times.
struct TimedSummary {
  double scaled_s = 0;
  double raw_s = 0;
  double reference_s = 0;
  std::size_t n = 0;
};

inline TimedSummary summarize(const std::vector<Timed>& timed) {
  std::vector<double> scaled, raw, reference;
  for (const Timed& t : timed) {
    scaled.push_back(t.scaled_s());
    raw.push_back(t.raw_s);
    reference.push_back(t.reference_s);
  }
  return {median(scaled), median(raw), median(reference), timed.size()};
}

}  // namespace perfbench
