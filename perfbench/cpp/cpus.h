// CPU placement of the timed work. On a virtual machine whose host other
// tenants share, each virtual CPU is slowed by its own neighbours, and a
// wake-up across CPUs costs what the host makes it cost. The timed loops
// therefore run on one CPU at a time and visit every CPU the process may
// use in turn, so a run samples all of them rather than wherever the
// scheduler first put it.
#pragma once

#include <sched.h>

#include <cstddef>
#include <vector>

namespace perfbench {

/// The CPUs the process was allowed when this was first called; main()
/// calls it before any thread is pinned.
inline const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}

/// Pins the calling thread, and the threads it starts afterwards, to the
/// (k mod n)-th allowed CPU. If the host refuses, the thread stays where
/// it was: placement steadies the figures but is not needed for them.
inline void pin_to_cpu(std::size_t k) {
  const std::vector<int>& cpus = allowed_cpus();
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[k % cpus.size()], &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

/// Lets the calling thread run on every allowed CPU again.
inline void unpin() {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : allowed_cpus()) CPU_SET(c, &set);
  if (!allowed_cpus().empty()) (void)sched_setaffinity(0, sizeof set, &set);
}

}  // namespace perfbench
