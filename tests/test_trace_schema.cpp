// Golden-trace tier for the bgpatoms-trace/1 document (report/trace.h):
// one small campaign workload — simulate, archive, stream-analyze, sweep
// through the campaign cache — run twice, at 1 worker thread and at 8.
// Both traces must parse and validate against the schema, and the
// deterministic section (`counters`: record counts, section counts,
// cache hits) must serialize byte-identically across thread counts; the
// timing sections are checked for shape only (present, non-negative,
// min <= max), never for values.
#include <gtest/gtest.h>

#include <string>

#include "bgp/archive.h"
#include "bgp/archive_view.h"
#include "core/analyze.h"
#include "core/longitudinal.h"
#include "core/parallel.h"
#include "obs/obs.h"
#include "report/cache.h"
#include "report/trace.h"
#include "testutil.h"

namespace bgpatoms::report {
namespace {

#if BGPATOMS_OBS_ENABLED

core::CampaignConfig small_campaign() {
  core::CampaignConfig config;
  config.year = 2010.0;
  config.scale = 0.01;
  config.seed = 7;
  config.with_updates = true;
  config.with_stability = true;
  return config;
}

/// The instrumented workload, identical for every thread count: a cached
/// campaign requested twice (one miss + one hit), a quarter sweep, and a
/// full streamed analysis over a v2 archive.
void run_workload(int threads, const std::string& archive_path) {
  CampaignCache cache;
  const auto campaign = cache.campaign(small_campaign());
  cache.campaign(small_campaign());  // second request: a cache hit

  core::TaskPool pool(threads);
  core::SweepOptions sweep_options;
  sweep_options.pool = &pool;
  cache.sweep({core::quarter_job(net::Family::kIPv4, 2010.0, 0.01, 7),
               core::quarter_job(net::Family::kIPv4, 2010.25, 0.01, 7)},
              sweep_options);

  bgp::write_archive_file(campaign->dataset(), archive_path);
  core::AnalysisConfig config;
  config.atoms.threads = threads;
  config.with_stability = true;
  config.with_updates = true;
  bgp::ArchiveView view(archive_path);
  core::analyze(view, &view, config);
}

/// Runs the workload from a zeroed registry and returns the trace doc.
json::Value traced_run(int threads, const std::string& archive_path) {
  obs::registry().reset_values();
  run_workload(threads, archive_path);
  TraceMeta meta;
  meta.threads = threads;
  meta.scale_multiplier = 1.0;
  return trace_to_json(obs::registry().snapshot(), meta);
}

TEST(TraceSchema, ValidatesAndCountersAreThreadCountInvariant) {
  test::TempFile archive("trace_schema.bga");
  const json::Value t1 = traced_run(1, archive.path());
  const json::Value t8 = traced_run(8, archive.path());

  // Serialize -> parse -> validate: the exact contract bga_bench --trace
  // enforces before exiting 0.
  for (const json::Value* t : {&t1, &t8}) {
    const std::string doc = t->serialize();
    json::Value parsed;
    ASSERT_NO_THROW(parsed = json::Value::parse(doc));
    EXPECT_EQ(validate_trace(parsed), "");
    EXPECT_EQ(parsed, *t);  // document round-trips exactly
  }

  // The deterministic section: bit-identical across thread counts.
  const json::Value* c1 = t1.find("counters");
  const json::Value* c8 = t8.find("counters");
  ASSERT_NE(c1, nullptr);
  ASSERT_NE(c8, nullptr);
  EXPECT_FALSE(c1->as_object().empty());
  EXPECT_EQ(c1->serialize(), c8->serialize());

  // The workload leaves known marks in the counters.
  const auto counter = [](const json::Value& c, const char* name) {
    const json::Value* v = c.find(name);
    return v == nullptr ? std::uint64_t{0} : v->as_uint64();
  };
  EXPECT_EQ(counter(*c1, "cache.campaign_hits"), 1u);
  EXPECT_EQ(counter(*c1, "cache.campaign_misses"), 1u);
  EXPECT_EQ(counter(*c1, "cache.quarter_misses"), 2u);
  // The sweep analyzes in-memory campaigns, so analyze counters cover a
  // superset of what the one archive pass decoded.
  EXPECT_GT(counter(*c1, "archive.snapshots_decoded"), 0u);
  EXPECT_GE(counter(*c1, "analyze.snapshots_seen"),
            counter(*c1, "archive.snapshots_decoded"));
  EXPECT_GT(counter(*c1, "analyze.records_seen"), 0u);
  EXPECT_GT(counter(*c1, "archive.sections"), 0u);
  EXPECT_GT(counter(*c1, "archive.crc_checks"), 0u);

  // Timing fields: present and well-formed in both, values unconstrained.
  for (const json::Value* t : {&t1, &t8}) {
    const json::Value* timers = t->find("timers");
    ASSERT_NE(timers, nullptr);
    EXPECT_FALSE(timers->as_array().empty());
    for (const auto& entry : timers->as_array()) {
      EXPECT_LE(entry.find("min_ns")->as_uint64(),
                entry.find("max_ns")->as_uint64());
      EXPECT_GE(entry.find("total_ns")->as_uint64(),
                entry.find("max_ns")->as_uint64());
    }
  }
}

TEST(TraceSchema, ValidatorRejectsMalformedDocuments) {
  TraceMeta meta;
  meta.threads = 1;
  const json::Value good = trace_to_json(obs::registry().snapshot(), meta);
  EXPECT_EQ(validate_trace(good), "");

  EXPECT_NE(validate_trace(json::Value(3)), "");
  EXPECT_NE(validate_trace(json::Value(json::Object{})), "");

  // Wrong schema marker.
  json::Object wrong;
  for (const auto& [k, v] : good.as_object()) {
    wrong.emplace_back(k, k == "schema" ? json::Value("bgpatoms-trace/999")
                                        : v);
  }
  EXPECT_NE(validate_trace(json::Value(std::move(wrong))), "");

  // A negative counter value (only representable via int64).
  json::Object bad_counter;
  for (const auto& [k, v] : good.as_object()) {
    bad_counter.emplace_back(
        k, k == "counters"
               ? json::Value(json::Object{{"x", json::Value(-1)}})
               : v);
  }
  EXPECT_NE(validate_trace(json::Value(std::move(bad_counter))), "");
}

#endif  // BGPATOMS_OBS_ENABLED

}  // namespace
}  // namespace bgpatoms::report
