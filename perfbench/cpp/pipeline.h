// The batch half of the benchmark: simulate a measurement campaign, write
// and stream BGA archives, and run the analysis chain (sanitize, atoms,
// stability, incremental follow, AtomIndex) through the library's public
// functions. Every call into a library layer sits under a Tracer span
// named "<layer>.<stage>", so a traced pass explains its own wall time.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bgp/views.h"
#include "core/atoms.h"
#include "net/prefix.h"
#include "query/atom_index.h"
#include "tracer.h"

namespace perfbench {

/// Output checks of one run: each check is one attempted operation; a
/// failed one is reported on stderr and makes the run fail.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void expect(bool ok, const std::string& what);
};

/// Deterministic work counts, keyed by per-layer metric name.
using Counts = std::map<std::string, double>;

/// Ground truth of one analysed snapshot, independent of AtomIndex: every
/// retained prefix with the id compute_atoms gave its atom. Request plans
/// and the linear-scan lookup oracle are built from it.
struct Truth {
  std::vector<bgpatoms::net::Prefix> prefixes;
  std::vector<std::uint32_t> atom_of_row;
};

Truth make_truth(const bgpatoms::core::SanitizedSnapshot& san,
                 const bgpatoms::core::AtomSet& atoms);

/// What one analysed dataset leaves behind for later checks and probes.
struct AnalysisOutput {
  /// core::partition_fingerprint of every snapshot's atoms, in order.
  std::vector<std::uint64_t> snapshot_fingerprints;
  /// IncrementalAtoms::partition_fingerprint at the end of the stream.
  std::uint64_t live_fingerprint = 0;
  /// AtomIndex of the first snapshot, and that snapshot's truth.
  std::shared_ptr<const bgpatoms::query::AtomIndex> index;
  Truth truth;
};

/// One campaign of the paper's §2.4.1 schedule: capture at t0, an
/// optional 4 h update stream, then captures at +8 h, +24 h and +1 w.
/// The topology seed fixes the AS graph, and with it the campaign's size;
/// the simulation seed draws policies, churn, faults and updates on it.
/// The default scale is a quarter of the ROADMAP's reference 0.02: a pass
/// then takes about a second, so a run times many passes and reports their
/// median, instead of one pass that a slow spell of a shared host spoils.
struct CampaignSpec {
  bgpatoms::net::Family family = bgpatoms::net::Family::kIPv4;
  double year = 2024.75;
  double scale = 0.005;
  std::uint64_t topology_seed = 1;
  std::uint64_t seed = 1;
  bool updates = true;
};

/// Streams every snapshot of `snapshots` (sanitize, atoms, stability
/// against the first snapshot), then follows `updates` from the first
/// snapshot with IncrementalAtoms and builds the first snapshot's
/// AtomIndex. `from_archive` adds bgp.archive_read spans around the view
/// cursors. Output checks (incremental vs recompute, index vs core
/// fingerprint) run with `clock` paused.
AnalysisOutput analyze_stream(bgpatoms::bgp::SnapshotView& snapshots,
                              bgpatoms::bgp::UpdateStreamView& updates,
                              bool from_archive, int threads, Tracer& tracer,
                              PhaseClock& clock, Checks& checks,
                              Counts& counts);

/// Simulates `spec` and writes its archive to `path`.
void simulate_to_archive(const CampaignSpec& spec, const std::string& path,
                         Tracer& tracer, Counts& counts);

/// The campaign workload's timed pass: simulate `spec`, write the archive
/// to `path`, then analyse the in-memory dataset. Returns the analysis;
/// `clock` holds the pass's measured seconds afterwards (paused).
AnalysisOutput campaign_pass(const CampaignSpec& spec, const std::string& path,
                             int threads, Tracer& tracer, PhaseClock& clock,
                             Checks& checks, Counts& counts);

/// The reanalyze workload's timed pass: stream each archive through
/// ArchiveView and analyse it. Returns one output per archive.
std::vector<AnalysisOutput> reanalyze_pass(
    const std::vector<std::string>& paths, int threads, Tracer& tracer,
    PhaseClock& clock, Checks& checks, Counts& counts);

/// FNV-1a 64 digest of a file's bytes.
std::uint64_t file_digest(const std::string& path);

}  // namespace perfbench
