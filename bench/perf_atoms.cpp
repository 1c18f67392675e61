// Microbenchmarks for the analysis pipeline: sanitization, atom
// computation, formation distance and stability on simulated snapshots.
#include <benchmark/benchmark.h>

#include "core/formation.h"
#include "core/longitudinal.h"
#include "core/stability.h"

using namespace bgpatoms;

namespace {

/// One cached campaign per (year, scale) so setup cost is paid once.
const core::Campaign& campaign() {
  static const core::Campaign c = [] {
    core::CampaignConfig config;
    config.year = 2024.0;
    config.scale = 0.01;
    config.seed = 42;
    config.with_stability = true;
    return core::run_campaign(config);
  }();
  return c;
}

void BM_Sanitize(benchmark::State& state) {
  const auto& ds = campaign().dataset();
  std::size_t records = 0;
  for (auto _ : state) {
    const auto snap = core::sanitize(ds, 0);
    records = 0;
    for (const auto& vp : snap.vps) records += vp.routes.size();
    benchmark::DoNotOptimize(records);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records));
  state.counters["records"] = static_cast<double>(records);
}
BENCHMARK(BM_Sanitize)->Unit(benchmark::kMillisecond);

void BM_ComputeAtoms(benchmark::State& state) {
  const auto& snap = campaign().sanitized.front();
  std::size_t atoms = 0;
  for (auto _ : state) {
    const auto set = core::compute_atoms(snap);
    atoms = set.atoms.size();
    benchmark::DoNotOptimize(atoms);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(snap.prefixes.size()));
  state.counters["atoms"] = static_cast<double>(atoms);
}
BENCHMARK(BM_ComputeAtoms)->Unit(benchmark::kMillisecond);

void BM_SignatureMatrixBuild(benchmark::State& state) {
  // Matrix fill alone (no hashing/grouping): the substrate for
  // incremental atom maintenance (ROADMAP item 2).
  const auto& snap = campaign().sanitized.front();
  for (auto _ : state) {
    const auto m = core::AtomSignatureMatrix::build(snap);
    benchmark::DoNotOptimize(m.row(0).data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(snap.prefixes.size()));
}
BENCHMARK(BM_SignatureMatrixBuild)->Unit(benchmark::kMillisecond);

void BM_FormationDistance(benchmark::State& state) {
  const auto& atoms = campaign().atoms();
  for (auto _ : state) {
    const auto f = core::formation_distance(atoms);
    benchmark::DoNotOptimize(f.total_atoms);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(atoms.atoms.size()));
}
BENCHMARK(BM_FormationDistance)->Unit(benchmark::kMillisecond);

void BM_Stability(benchmark::State& state) {
  const auto& c = campaign();
  for (auto _ : state) {
    const auto r = core::stability(c.atom_sets[0], c.atom_sets[3]);
    benchmark::DoNotOptimize(r.cam);
  }
}
BENCHMARK(BM_Stability)->Unit(benchmark::kMillisecond);

void BM_Propagation(benchmark::State& state) {
  const auto& topo = campaign().topology;
  routing::Propagator prop(topo.graph);
  routing::RouteTable table;
  topo::NodeId origin = 0;
  for (auto _ : state) {
    prop.compute(origin, nullptr, table);
    benchmark::DoNotOptimize(table.dist.data());
    origin = (origin + 17) % static_cast<topo::NodeId>(topo.graph.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(topo.graph.size()));
}
BENCHMARK(BM_Propagation)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
