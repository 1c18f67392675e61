// Small arithmetic shared by the benchmark driver: percentiles over latency
// samples and self time over a tree of nested spans. Kept header-only and
// free of library dependencies so the unit tests pin it directly.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (`p` in [0, 1]) of an unsorted sample: the
/// element at rank round(p * (n - 1)) of the sorted sample. Reorders
/// `values`; 0 for an empty sample.
template <typename T>
double percentile(std::vector<T>& values, double p) {
  if (values.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(k),
                   values.end());
  return static_cast<double>(values[k]);
}

/// Median of a small sample: the mean of the two middle elements when the
/// count is even. 0 for an empty sample.
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// One closed span. `parent` indexes the enclosing span in the same list,
/// or is kNoParent for a top-level span.
struct SpanRecord {
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::size_t parent = kNoParent;

  std::uint64_t duration_ns() const { return end_ns - start_ns; }
};

/// Self time of every span: its duration minus the durations of its direct
/// children. Spans nest (a child lies inside its parent's interval), so the
/// self times of all spans sum to the summed duration of the top-level ones.
inline std::vector<std::uint64_t> self_times(
    const std::vector<SpanRecord>& spans) {
  std::vector<std::uint64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].duration_ns();
  }
  for (const SpanRecord& s : spans) {
    if (s.parent != SpanRecord::kNoParent) {
      const std::uint64_t d = s.duration_ns();
      self[s.parent] -= std::min(self[s.parent], d);
    }
  }
  return self;
}

}  // namespace perfbench
