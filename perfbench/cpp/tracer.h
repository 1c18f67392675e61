// In-memory span recorder for the benchmark's own call sites. A span wraps
// one call into a library layer (topo, routing, bgp, core, query); spans
// are kept in memory and summarized when the run ends. A disabled tracer
// records nothing, which is how the untraced end-to-end runs use it.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "stats.h"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Single-threaded span recorder; spans opened on one Tracer must close in
/// LIFO order, which the RAII Scope guarantees.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer* tracer, std::size_t index) : tracer_(tracer), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }

   private:
    Tracer* tracer_;
    std::size_t index_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  [[nodiscard]] Scope span(std::string name) {
    if (!enabled_) return Scope(nullptr, 0);
    const std::size_t parent =
        open_.empty() ? SpanRecord::kNoParent : open_.back();
    spans_.push_back({std::move(name), now_ns(), 0, parent});
    open_.push_back(spans_.size() - 1);
    return Scope(this, spans_.size() - 1);
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Summed self time, in seconds, per span name.
  std::map<std::string, double> self_seconds_by_name() const {
    std::map<std::string, double> out;
    const std::vector<std::uint64_t> self = self_times(spans_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name] += static_cast<double>(self[i]) * 1e-9;
    }
    return out;
  }

  /// Summed self time of every span, in seconds.
  double total_self_seconds() const {
    double total = 0;
    for (const auto& [name, s] : self_seconds_by_name()) total += s;
    return total;
  }

 private:
  void close(std::size_t index) {
    spans_[index].end_ns = now_ns();
    open_.pop_back();
  }

  bool enabled_;
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> open_;
};

/// Wall clock of a timed phase that can be paused around output checks,
/// so checking never counts as measured work.
class PhaseClock {
 public:
  PhaseClock() : started_(now_ns()) {}
  void pause() { elapsed_ += now_ns() - started_; }
  void resume() { started_ = now_ns(); }
  /// Seconds measured so far; call while paused.
  double seconds() const { return static_cast<double>(elapsed_) * 1e-9; }

 private:
  std::uint64_t started_;
  std::uint64_t elapsed_ = 0;
};

}  // namespace perfbench
