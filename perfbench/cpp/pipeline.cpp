#include "pipeline.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>

#include "bgp/archive.h"
#include "bgp/archive_view.h"
#include "core/atoms.h"
#include "core/incremental.h"
#include "core/sanitize.h"
#include "core/stability.h"
#include "net/hash.h"
#include "routing/simulator.h"
#include "topo/topology.h"

namespace perfbench {

using namespace bgpatoms;

void Checks::expect(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
}

Truth make_truth(const core::SanitizedSnapshot& san,
                 const core::AtomSet& atoms) {
  Truth truth;
  truth.prefixes.reserve(san.prefixes.size());
  truth.atom_of_row.reserve(san.prefixes.size());
  for (const bgp::PrefixId id : san.prefixes) {
    truth.prefixes.push_back(san.prefix(id));
    truth.atom_of_row.push_back(atoms.atom_of.at(id));
  }
  return truth;
}

AnalysisOutput analyze_stream(bgp::SnapshotView& snapshots,
                              bgp::UpdateStreamView& updates,
                              bool from_archive, int threads, Tracer& tracer,
                              PhaseClock& clock, Checks& checks,
                              Counts& counts) {
  AnalysisOutput out;
  core::AtomOptions options;
  options.threads = threads;

  // The first snapshot is the reference: stability compares every later
  // snapshot against it and the incremental follow starts from it.
  std::unique_ptr<core::SanitizedSnapshot> ref;
  std::unique_ptr<core::AtomSet> ref_atoms;
  const auto next_snapshot = [&]() {
    if (!from_archive) return snapshots.next_snapshot();
    auto s = tracer.span("bgp.archive_read");
    return snapshots.next_snapshot();
  };
  for (const bgp::Snapshot* snap = next_snapshot(); snap != nullptr;
       snap = next_snapshot()) {
    // The per-snapshot products die at the end of this scope; the
    // core.snapshot span charges their release to the core layer.
    auto snapshot_span = tracer.span("core.snapshot");
    auto san = std::make_unique<core::SanitizedSnapshot>([&] {
      auto s = tracer.span("core.sanitize");
      return core::sanitize(snapshots, *snap);
    }());
    auto atoms = std::make_unique<core::AtomSet>([&] {
      auto s = tracer.span("core.atoms");
      return core::compute_atoms(*san, options);
    }());
    counts["core.atoms.groups"] += static_cast<double>(atoms->atoms.size());
    out.snapshot_fingerprints.push_back(core::partition_fingerprint(*atoms));
    if (!ref) {
      ref = std::move(san);
      ref_atoms = std::move(atoms);
    } else {
      auto s = tracer.span("core.stability");
      (void)core::stability(*ref_atoms, *atoms);
    }
  }
  if (!ref) {
    checks.expect(false, "dataset holds at least one snapshot");
    return out;
  }

  std::optional<core::IncrementalAtoms> live;
  {
    auto s = tracer.span("core.incremental.seed");
    live.emplace(*ref, snapshots.paths(), options);
  }
  while (true) {
    std::span<const bgp::UpdateRecord> chunk;
    if (from_archive) {
      auto s = tracer.span("bgp.archive_read");
      chunk = updates.next_chunk();
    } else {
      chunk = updates.next_chunk();
    }
    if (chunk.empty()) break;
    auto s = tracer.span("core.incremental.apply");
    live->apply(chunk);
  }
  {
    auto s = tracer.span("core.incremental.flush");
    out.live_fingerprint = live->partition_fingerprint();
  }
  counts["core.incremental.cell_writes"] +=
      static_cast<double>(live->counters().cell_writes);
  counts["core.incremental.dirty_rows"] +=
      static_cast<double>(live->counters().dirty_rows);
  {
    auto s = tracer.span("query.index_build");
    out.index = std::make_shared<const query::AtomIndex>(
        query::AtomIndex::build(*ref_atoms));
  }

  clock.pause();
  const std::uint64_t recomputed = core::partition_fingerprint(
      core::compute_atoms(live->rebuild_snapshot(), options));
  checks.expect(out.live_fingerprint == recomputed,
                "incremental fingerprint equals recompute after the stream");
  checks.expect(out.index->partition_fingerprint() ==
                    out.snapshot_fingerprints.front(),
                "AtomIndex fingerprint equals the core fingerprint");
  out.truth = make_truth(*ref, *ref_atoms);
  clock.resume();

  auto s = tracer.span("core.release");
  live.reset();
  ref_atoms.reset();
  ref.reset();
  return out;
}

namespace {

/// Runs the campaign schedule; the simulator is destroyed before return.
bgp::Dataset simulate(const CampaignSpec& spec, Tracer& tracer,
                      Counts& counts) {
  const topo::EraParams era =
      spec.family == net::Family::kIPv4
          ? topo::era_params_v4(spec.year, spec.scale)
          : topo::era_params_v6(spec.year, spec.scale);
  std::optional<topo::Topology> topology;
  {
    auto s = tracer.span("topo.generate");
    topology.emplace(topo::generate_topology(era, spec.topology_seed));
  }
  routing::SimOptions opt;
  opt.seed = spec.seed;
  opt.weekly_churn = true;
  std::optional<routing::Simulator> sim;
  {
    auto s = tracer.span("routing.construct");
    sim.emplace(std::move(*topology), opt);
  }
  {
    auto s = tracer.span("routing.capture_first");
    sim->capture();
  }
  if (spec.updates) {
    auto s = tracer.span("routing.emit_updates");
    sim->emit_updates(4 * routing::kHour);
  }
  for (const bgp::Timestamp t :
       {8 * routing::kHour, routing::kDay, routing::kWeek}) {
    {
      auto s = tracer.span("routing.advance");
      sim->advance_to(t);
    }
    auto s = tracer.span("routing.capture_rest");
    sim->capture();
  }
  auto s = tracer.span("routing.release");
  bgp::Dataset ds = sim->take_dataset();
  sim.reset();
  topology.reset();
  double rib_records = 0;
  for (const bgp::Snapshot& snap : ds.snapshots) {
    rib_records += static_cast<double>(bgp::Dataset::record_count(snap));
  }
  counts["routing.rib_records"] += rib_records;
  counts["routing.update_records"] += static_cast<double>(ds.updates.size());
  return ds;
}

void write_archive(const bgp::Dataset& ds, const std::string& path,
                   Tracer& tracer, Counts& counts) {
  auto s = tracer.span("bgp.archive_write");
  bgp::write_archive_file(ds, path);
  counts["bgp.archive_bytes"] +=
      static_cast<double>(std::filesystem::file_size(path));
}

}  // namespace

void simulate_to_archive(const CampaignSpec& spec, const std::string& path,
                         Tracer& tracer, Counts& counts) {
  auto ds = std::make_unique<bgp::Dataset>(simulate(spec, tracer, counts));
  write_archive(*ds, path, tracer, counts);
  auto s = tracer.span("bgp.dataset_release");
  ds.reset();
}

AnalysisOutput campaign_pass(const CampaignSpec& spec, const std::string& path,
                             int threads, Tracer& tracer, PhaseClock& clock,
                             Checks& checks, Counts& counts) {
  auto ds = std::make_unique<bgp::Dataset>(simulate(spec, tracer, counts));
  write_archive(*ds, path, tracer, counts);
  AnalysisOutput out;
  {
    bgp::DatasetView view(*ds);
    out = analyze_stream(view, view, /*from_archive=*/false, threads, tracer,
                         clock, checks, counts);
  }
  {
    auto s = tracer.span("bgp.dataset_release");
    ds.reset();
  }
  clock.pause();
  return out;
}

std::vector<AnalysisOutput> reanalyze_pass(
    const std::vector<std::string>& paths, int threads, Tracer& tracer,
    PhaseClock& clock, Checks& checks, Counts& counts) {
  std::vector<AnalysisOutput> out;
  for (const std::string& path : paths) {
    std::optional<bgp::ArchiveView> view;
    {
      auto s = tracer.span("bgp.archive_open");
      view.emplace(path);
    }
    out.push_back(analyze_stream(*view, *view, /*from_archive=*/true, threads,
                                 tracer, clock, checks, counts));
    auto s = tracer.span("bgp.archive_close");
    view.reset();
  }
  clock.pause();
  return out;
}

std::uint64_t file_digest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::uint64_t h = bgpatoms::fnv1a64(nullptr, 0);  // the empty digest
  std::vector<char> buf(1 << 20);
  while (in) {
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    const auto n = static_cast<std::size_t>(in.gcount());
    h = bgpatoms::fnv1a64(buf.data(), n, h);
  }
  return h;
}

}  // namespace perfbench
