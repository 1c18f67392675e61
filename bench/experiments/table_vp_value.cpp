// table_vp_value — VP value and selection (extends fig12/fig13's §A8.2
// full-feed trend): how few vantage points preserve the atom partition,
// 2004-2024. For every biennial campaign the greedy marginal-refinement
// selector (core::select_vps) ranks the VPs and a ~10% budget is scored
// against the full-VP partition: atoms kept, fidelity, Rand index. The
// final year additionally reports the head of its fidelity curve (one
// row per selected VP) — the budget-vs-fidelity tradeoff a collector
// operator would read off.
//
// Checks: fidelity is monotone non-decreasing in budget at every scale
// (nested-partition refinement — each added VP can only split groups).
// At full scale two redundancy bars are gated (smoke campaigns have too
// few VPs for a 10% budget to mean anything): the ~10% subset of the 2024
// campaign must keep >= 99% *pairwise* partition agreement (Rand index —
// atom-count fidelity has a long tail of tiny splits on this substrate,
// ~63% at that budget, while pairwise agreement is >= 99.8%), and 99% of
// the atom count must be reached by at most 85% of the VPs (the tail of
// the ranking is pure redundancy).
#include <algorithm>
#include <cstddef>

#include "core/atoms.h"
#include "core/vp_value.h"
#include "experiments/common.h"
#include "experiments/experiments.h"

namespace bgpatoms::bench {
namespace {

void run(Context& ctx) {
  const double scale = ctx.scale(0.01);
  ctx.note_scale(scale);

  const auto jobs = full_feed_trend_jobs(ctx, scale, 7000);

  auto& trend = ctx.add_table(
      "trend", "~10% VP budget vs the full-VP partition",
      {"year", "VPs", "atoms", "budget", "kept", "fidelity", "rand idx"});

  bool monotone = true;
  std::size_t last_vps = 0, last_budget = 0;
  double last_fidelity = 0.0, last_rand = 1.0;
  std::size_t last_vps_for_99 = 0;
  core::VpSelection last_selection;
  for (const auto& job : jobs) {
    const auto& snap = ctx.campaign(job.config).sanitized.front();
    core::AtomOptions matrix_options;
    const auto matrix =
        core::AtomSignatureMatrix::build(snap, matrix_options, nullptr);

    core::VpSelectOptions sel;
    sel.budget = std::max<std::size_t>(1, matrix.num_vps() / 10);
    sel.threads = ctx.threads();
    const core::VpSelection selection = core::select_vps(matrix, sel);

    // Uncapped run to 99% atom fidelity: how deep into the ranking the
    // long tail of tiny refinements reaches.
    core::VpSelectOptions to99;
    to99.min_fidelity = 0.99;
    to99.threads = ctx.threads();
    last_vps_for_99 = core::select_vps(matrix, to99).steps.size();

    for (std::size_t k = 1; k < selection.steps.size(); ++k) {
      monotone &=
          selection.steps[k].fidelity >= selection.steps[k - 1].fidelity;
    }

    // A degenerate campaign (<= 1 full-partition group) selects nothing:
    // zero columns already reproduce it.
    const std::size_t kept = selection.steps.empty()
                                 ? selection.full_groups
                                 : selection.steps.back().groups;
    const double rand_index =
        selection.steps.empty() ? 1.0 : selection.steps.back().rand_index;
    trend.add_row({fmt("%.0f", job.config.year),
                   std::to_string(selection.total_vps),
                   std::to_string(selection.full_groups),
                   std::to_string(sel.budget), std::to_string(kept),
                   num(selection.fidelity, 4), num(rand_index, 4)});
    last_vps = selection.total_vps;
    last_budget = sel.budget;
    last_fidelity = selection.fidelity;
    last_rand = rand_index;
    last_selection = selection;
  }

  // Budget-vs-fidelity curve of the final (2024) campaign: the first
  // selected VPs carry nearly all of the partition, the tail almost none.
  auto& curve = ctx.add_table(
      "curve", "2024 fidelity curve (greedy order)",
      {"k", "vp", "gain", "atoms", "fidelity", "rand idx"});
  for (std::size_t k = 0; k < last_selection.steps.size(); ++k) {
    const auto& step = last_selection.steps[k];
    curve.add_row({std::to_string(k + 1), std::to_string(step.vp),
                   std::to_string(step.gain), std::to_string(step.groups),
                   num(step.fidelity, 4), num(step.rand_index, 4)});
  }

  ctx.add_metric("vps_2024", static_cast<double>(last_vps));
  ctx.add_metric("budget_2024", static_cast<double>(last_budget));
  ctx.add_metric("fidelity_2024", last_fidelity,
                 "atoms kept by the ~10% budget, share of full");
  ctx.add_metric("rand_index_2024", last_rand,
                 "pairwise partition agreement at the ~10% budget");
  ctx.add_metric("vps_for_99pct_2024", static_cast<double>(last_vps_for_99),
                 "selected VPs until 99% of atoms are preserved");

  ctx.add_check(Check::that(
      "fidelity monotone non-decreasing in budget (every year)", monotone,
      monotone ? "all curves monotone" : "regression in a fidelity curve"));

  // The redundancy bars are asserted at full scale only: smoke campaigns
  // have a handful of VPs, where a "10% budget" is one column and the
  // ratios are quantization noise.
  if (ctx.scale_multiplier() >= 1.0) {
    ctx.add_check(Check::greater(
        "~10% of VPs keep >= 99% pairwise agreement (2024 Rand index)",
        last_rand, 0.99,
        std::to_string(last_budget) + " of " + std::to_string(last_vps) +
            " VPs -> " + num(last_rand, 4)));
    ctx.add_check(Check::less(
        "99% of atoms need at most 85% of the VPs (2024)",
        static_cast<double>(last_vps_for_99),
        0.85 * static_cast<double>(last_vps),
        std::to_string(last_vps_for_99) + " of " + std::to_string(last_vps) +
            " VPs"));
  } else {
    ctx.note("redundancy bars skipped below full scale (" +
             std::to_string(last_vps) + " VPs); measured rand " +
             num(last_rand, 4) + " at budget " + std::to_string(last_budget) +
             ", " + std::to_string(last_vps_for_99) + " VPs to 99% atoms");
  }
}

}  // namespace

void register_table_vp_value(Registry& registry) {
  registry.add({"table_vp_value", "§A8.2", "Table (VP value)",
                "Greedy VP selection: atoms preserved per vantage-point "
                "budget",
                run});
}

}  // namespace bgpatoms::bench
