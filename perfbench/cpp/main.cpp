// perfbench: one workload of the pipeline benchmark in one process.
//
//   perfbench --workload <campaign|reanalyze> --phase <setup|run>
//             --seed <n> --seconds <s> --trace <0|1> --dir <work dir>
//             [--golden <golden.json>]
//
// The setup phase writes the archives the reanalyze workload reads; the
// run phase measures. Each phase prints one JSON line
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// which run.py merges into the benchmark's result. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the per-layer ones.
// README.md lists every metric and what it should move.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bgp/archive_view.h"
#include "core/parallel.h"
#include "obs/obs.h"
#include "pipeline.h"
#include "probe.h"
#include "reference.h"
#include "report/json.h"

namespace perfbench {
namespace {

using namespace bgpatoms;

/// Requests in a traced run's query probe, whose per-op handle() costs are
/// layer metrics, and in an untraced run's, which only checks replies.
constexpr std::size_t kProbeRequests = 30'000;
constexpr std::size_t kCheckRequests = 6'000;
/// Lookup/equiv replies re-derived by the linear-scan oracle per plan.
constexpr std::size_t kOracleSample = 500;
/// Set-ups per set-up phase (and warm-up passes of the campaign workload);
/// setup_s is their median scaled time (reference.h).
constexpr std::size_t kSetups = 3;
/// The fewest timed passes of a batch run, however long --seconds is.
constexpr std::size_t kMinPasses = 3;
/// Worker threads of the timed passes. One thread keeps a pass's time
/// independent of how many of the host's cores other tenants hold; the
/// traced reanalyze run reports what the default pool gains over it.
constexpr int kTimedThreads = 1;
/// The least share of a traced pass's wall time its spans must cover.
constexpr double kMinCoverage = 0.95;

/// Every span the benchmark opens; each becomes a "<name>_s" metric.
const std::vector<std::string> kSpans = {
    "topo.generate",          "routing.construct",
    "routing.capture_first",  "routing.emit_updates",
    "routing.advance",        "routing.capture_rest",
    "routing.release",        "bgp.archive_write",
    "bgp.dataset_release",    "bgp.archive_open",
    "bgp.archive_read",       "bgp.archive_close",
    "core.snapshot",          "core.sanitize",
    "core.atoms",             "core.stability",
    "core.incremental.seed",  "core.incremental.apply",
    "core.incremental.flush", "core.release",
    "query.index_build",
};

/// Work counts the pipeline records, with their units.
const std::vector<std::pair<std::string, const char*>> kCounts = {
    {"routing.rib_records", "count"},
    {"routing.update_records", "count"},
    {"bgp.archive_bytes", "B"},
    {"core.atoms.groups", "count"},
    {"core.incremental.cell_writes", "count"},
    {"core.incremental.dirty_rows", "count"},
};

/// src/obs registry counters reported as "obs.<name>" (the library's own
/// work counters; the benchmark adds none).
const std::vector<std::string> kRegistryCounters = {
    "archive.bytes_decoded",
    "archive.sections",
    "archive.snapshots_decoded",
    "archive.update_records_decoded",
    "atoms.groups",
    "atoms.matrix_cells",
    "atoms.prefixes",
    "atoms.routes",
    "atoms.incr.records",
    "atoms.incr.cell_writes",
    "atoms.incr.dirty_rows",
    "atoms.incr.splits",
    "atoms.incr.merges",
    "atoms.incr.flushes",
    "pool.batches",
    "pool.tasks",
    "query.index.rows",
};

struct Args {
  std::string workload;
  std::string phase = "run";
  std::string dir = ".";
  std::string golden;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    const auto number = [&](auto& out) {
      const auto [end, ec] =
          std::from_chars(value.data(), value.data() + value.size(), out);
      if (ec != std::errc() || end != value.data() + value.size()) {
        throw std::invalid_argument("bad value for " + flag + ": " + value);
      }
    };
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--phase") {
      a.phase = value;
    } else if (flag == "--dir") {
      a.dir = value;
    } else if (flag == "--golden") {
      a.golden = value;
    } else if (flag == "--seed") {
      number(a.seed);
    } else if (flag == "--seconds") {
      number(a.seconds);
    } else if (flag == "--trace") {
      int t = 0;
      number(t);
      a.trace = t != 0;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload != "campaign" && a.workload != "reanalyze") {
    throw std::invalid_argument("unknown workload '" + a.workload + "'");
  }
  if (a.phase != "setup" && a.phase != "run") {
    throw std::invalid_argument("unknown phase '" + a.phase + "'");
  }
  if (a.phase == "setup" && a.workload != "reanalyze") {
    throw std::invalid_argument("only reanalyze has a setup phase");
  }
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

/// The result line's metrics, by name.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

void print_result(const Checks& checks, const Metrics& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (checks.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << checks.attempted
      << ", \"failed\": " << checks.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", m.value);
    out << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << num
        << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
}

using Registry = std::map<std::string, std::uint64_t>;

Registry registry_counters() {
  Registry out;
  for (const auto& c : obs::registry().snapshot().counters) {
    out[c.name] = c.value;
  }
  return out;
}

Registry registry_delta(const Registry& before, const Registry& after) {
  Registry out;
  for (const auto& [name, v] : after) {
    const auto it = before.find(name);
    out[name] = v - (it == before.end() ? 0 : it->second);
  }
  return out;
}

double peak_rss_mib() {
  return static_cast<double>(obs::sample_memory().peak_rss_bytes) /
         (1024.0 * 1024.0);
}

/// Seed of the k-th input a workload derives from --seed. Topologies keep
/// CampaignSpec's fixed seed, so every seed measures a campaign of the
/// same size.
std::uint64_t input_seed(const Args& a, std::uint64_t k) {
  return core::derive_seed(a.seed, k);
}

CampaignSpec campaign_spec(const Args& a) {
  CampaignSpec spec;
  spec.seed = input_seed(a, 0);
  return spec;
}

/// Reanalyze's archives: the reference campaign, an older and smaller
/// IPv4 era, and IPv6, so the signature matrix ranges from cache-resident
/// to several MB.
std::vector<CampaignSpec> reanalyze_specs(const Args& a) {
  std::vector<CampaignSpec> specs(3);
  specs[1].year = 2010.0;
  specs[2].family = net::Family::kIPv6;
  for (std::size_t k = 0; k < specs.size(); ++k) {
    specs[k].seed = input_seed(a, 10 + k);
  }
  return specs;
}

std::vector<std::string> archive_paths(const Args& a, std::size_t n) {
  std::vector<std::string> out;
  for (std::size_t k = 0; k < n; ++k) {
    out.push_back(a.dir + "/" + a.workload + "-" + std::to_string(k) + ".bga");
  }
  return out;
}

/// What a traced run learns, turned into the per-layer metrics.
struct LayerReport {
  std::map<std::string, double> span_seconds;
  Counts counts;
  Registry registry;
  std::array<double, 4> handle_p50_us{};
  std::array<double, 4> requests{};
  double index_lookup = 0;
  double reply_bytes = 0;
  double coverage = 0;
  double overhead_frac = 0;
  double parallel_speedup = 0;

  void add_spans(const Tracer& tracer) {
    for (const auto& [name, s] : tracer.self_seconds_by_name()) {
      span_seconds[name] += s;
    }
  }

  void add_counts(const Counts& c) {
    for (const auto& [name, v] : c) counts[name] += v;
  }

  void add_probe(const HandleResult& pass, const Plan& plan,
                 const query::AtomIndex& index) {
    for (std::size_t op = 0; op < 4; ++op) {
      auto ns = pass.latencies[op];
      handle_p50_us[op] = percentile(ns, 0.5) * 1e-3;
      requests[op] = static_cast<double>(pass.latencies[op].size());
    }
    reply_bytes = pass.lookup_reply_bytes;
    index_lookup = index_lookup_us(index, plan);
  }

  Metrics metrics(bool setup_phase) const {
    Metrics m;
    for (const auto& [name, s] : span_seconds) {
      if (std::find(kSpans.begin(), kSpans.end(), name) == kSpans.end()) {
        std::fprintf(stderr, "perfbench: unlisted span %s\n", name.c_str());
      }
    }
    for (const std::string& name : kSpans) {
      const auto it = span_seconds.find(name);
      if (setup_phase && it == span_seconds.end()) continue;
      m[name + "_s"] = {it == span_seconds.end() ? 0.0 : it->second, "s"};
    }
    for (const auto& [name, unit] : kCounts) {
      const auto it = counts.find(name);
      if (setup_phase && it == counts.end()) continue;
      m[name] = {it == counts.end() ? 0.0 : it->second, unit};
    }
    for (const std::string& name : kRegistryCounters) {
      const auto it = registry.find(name);
      if (setup_phase && it == registry.end()) continue;
      m["obs." + name] = {
          it == registry.end() ? 0.0 : static_cast<double>(it->second),
          "count"};
    }
    if (setup_phase) return m;
    for (std::size_t op = 0; op < 4; ++op) {
      m[std::string("query.handle.") + kOpNames[op] + "_us"] = {
          handle_p50_us[op], "us"};
      m[std::string("query.requests.") + kOpNames[op]] = {requests[op],
                                                          "count"};
    }
    m["query.index.lookup_us"] = {index_lookup, "us"};
    m["query.reply_bytes"] = {reply_bytes, "B"};
    m["trace.coverage"] = {coverage, "ratio"};
    m["trace.overhead_frac"] = {overhead_frac, "ratio"};
    m["core.parallel_speedup"] = {parallel_speedup, "ratio"};
    return m;
  }
};

/// End-to-end metrics shared by every workload.
void put_end_to_end(Metrics& m, double setup_s, double run_s,
                    double rss_mib) {
  m["setup_s"] = {setup_s, "s"};
  m["run_s"] = {run_s, "s"};
  m["peak_rss_mib"] = {rss_mib, "MiB"};
}

/// Compares the work two identical traced passes did.
void expect_same_work(const Counts& a, const Counts& b, const Registry& ra,
                      const Registry& rb, Checks& checks) {
  checks.expect(a == b, "pipeline work counts repeat across two passes");
  for (const auto& [name, v] : ra) {
    const auto it = rb.find(name);
    checks.expect(it != rb.end() && it->second == v,
                  "obs counter " + name + " repeats across two passes");
  }
}

void expect_coverage(double coverage, Checks& checks) {
  checks.expect(coverage >= kMinCoverage,
                "spans cover at least 95% of the traced pass (coverage " +
                    std::to_string(coverage) + ")");
}

/// The in-process query probe over `out`'s index: `requests` planned
/// requests through ServeState::handle, every reply ok and a sample agreeing
/// with the linear-scan oracle. When `layers` is given it also fills the
/// query.* layer metrics.
void probe(const AnalysisOutput& out, const Args& a, std::size_t requests,
           Checks& checks, LayerReport* layers = nullptr) {
  query::Timeline timeline;
  timeline.add("probe", out.index);
  const query::ServeState state{std::move(timeline)};
  const Plan plan = make_plan(out.truth, requests, input_seed(a, 30));
  Tracer off(false);
  const HandleResult pass = handle_pass(state, plan, off, checks);
  check_with_oracle(state, plan, out.truth, kOracleSample, checks);
  if (layers != nullptr) layers->add_probe(pass, plan, *out.index);
}

/// Batch workloads: untraced passes until `seconds` have elapsed, and at
/// least kMinPasses, pass k on CPU k mod n with the host-speed reference
/// around it (reference.h). Slow spells of a shared host last from seconds
/// to minutes, so the run reports the median scaled pass. `pass` runs one
/// pass and returns its measured seconds.
template <typename Pass>
TimedSummary timed_passes(double seconds, Pass&& pass) {
  const std::uint64_t start = now_ns();
  const auto budget_ns = static_cast<std::uint64_t>(seconds * 1e9);
  std::vector<Timed> timed;
  do {
    timed.push_back(timed_on_cpu(timed.size(), pass));
  } while (timed.size() < kMinPasses || now_ns() - start < budget_ns);
  unpin();
  return summarize(timed);
}

/// Notes a timed phase's raw figures on stderr beside its scaled median.
void report_timing(const char* phase, const TimedSummary& t) {
  std::fprintf(stderr,
               "perfbench: %s: median %.4f s scaled, %.4f s raw, reference "
               "%.3f ms (nominal %.3f ms), %zu samples\n",
               phase, t.scaled_s, t.raw_s, t.reference_s * 1e3,
               kReferenceNominalS * 1e3, t.n);
}

/// Traced passes shared by the batch workloads: two traced passes whose
/// work must repeat exactly; the first one's spans become layer metrics.
template <typename Pass>
void traced_passes(double untraced_s, Checks& checks, LayerReport& layers,
                   Pass&& pass) {
  std::vector<double> times;
  Counts counts[2];
  Registry registry[2];
  for (int k = 0; k < 2; ++k) {
    Tracer tracer(true);
    PhaseClock clock;
    const Registry before = registry_counters();
    pass(tracer, clock, counts[k]);
    registry[k] = registry_delta(before, registry_counters());
    times.push_back(clock.seconds());
    if (k == 0) {
      layers.add_spans(tracer);
      layers.coverage = tracer.total_self_seconds() / clock.seconds();
    }
  }
  expect_coverage(layers.coverage, checks);
  expect_same_work(counts[0], counts[1], registry[0], registry[1], checks);
  layers.add_counts(counts[0]);
  layers.registry = registry[0];
  layers.overhead_frac = median(times) / untraced_s - 1.0;
}

std::uint64_t golden_digest(const Args& a, bool& applies) {
  applies = false;
  if (a.golden.empty()) return 0;
  std::ifstream in(a.golden);
  std::stringstream text;
  text << in.rdbuf();
  const auto doc = report::json::Value::parse(text.str());
  const auto* seed = doc.find("seed");
  const auto* digest = doc.find("campaign_archive_fnv1a64");
  if (seed == nullptr || digest == nullptr) {
    throw std::runtime_error("golden file lacks seed/campaign_archive_fnv1a64");
  }
  applies = seed->as_uint64() == a.seed;
  return std::stoull(digest->as_string(), nullptr, 16);
}

int run_campaign(const Args& a) {
  Checks checks;
  const CampaignSpec spec = campaign_spec(a);
  const std::string path = archive_paths(a, 1)[0];

  // Set-up is a warm-up: passes of the same pipeline, so lazy
  // initialisation and first-touch costs land before the timed passes.
  // They are timed like the timed passes.
  std::vector<Timed> warmups;
  for (std::size_t k = 0; k < kSetups; ++k) {
    warmups.push_back(timed_on_cpu(k, [&] {
      Tracer off(false);
      PhaseClock clock;
      Counts counts;
      (void)campaign_pass(spec, a.dir + "/warmup.bga", kTimedThreads, off,
                          clock, checks, counts);
      return clock.seconds();
    }));
  }
  unpin();
  const TimedSummary setup = summarize(warmups);

  AnalysisOutput last;
  const auto untraced_pass = [&] {
    Tracer off(false);
    PhaseClock clock;
    Counts counts;
    last = {};  // the previous pass's outputs must not raise the peak RSS
    last = campaign_pass(spec, path, kTimedThreads, off, clock, checks,
                         counts);
    return clock.seconds();
  };
  LayerReport layers;
  TimedSummary run;
  double rss = 0;
  if (!a.trace) {
    run = timed_passes(a.seconds, untraced_pass);
    rss = peak_rss_mib();
  } else {
    const double untraced = untraced_pass();
    traced_passes(untraced, checks, layers,
                  [&](Tracer& t, PhaseClock& c, Counts& counts) {
                    last = campaign_pass(spec, path, kTimedThreads, t, c,
                                         checks, counts);
                  });
    probe(last, a, kProbeRequests, checks, &layers);
  }

  // The archive must analyse to the same partitions as the in-memory
  // dataset it was written from. Its index then answers the check probe.
  {
    bgp::ArchiveView view(path);
    Tracer off(false);
    PhaseClock clock;
    Counts counts;
    const AnalysisOutput reread =
        analyze_stream(view, view, true, 0, off, clock, checks, counts);
    checks.expect(reread.snapshot_fingerprints == last.snapshot_fingerprints,
                  "archive re-read gives the in-memory atoms");
    checks.expect(reread.live_fingerprint == last.live_fingerprint,
                  "archive re-read gives the in-memory incremental partition");
    if (!a.trace) probe(reread, a, kCheckRequests, checks);
  }
  bool golden_applies = false;
  const std::uint64_t golden = golden_digest(a, golden_applies);
  if (golden_applies) {
    const std::uint64_t digest = file_digest(path);
    char hex[32];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(digest));
    checks.expect(digest == golden,
                  std::string("campaign archive digest ") + hex +
                      " equals the recorded one");
  }
  Metrics metrics;
  if (!a.trace) {
    report_timing("set-up", setup);
    report_timing("run", run);
    put_end_to_end(metrics, setup.scaled_s, run.scaled_s, rss);
  }
  print_result(checks, a.trace ? layers.metrics(false) : metrics);
  return checks.failed == 0 ? 0 : 1;
}

int run_reanalyze(const Args& a) {
  Checks checks;
  const std::vector<std::string> paths = archive_paths(a, 3);
  std::vector<AnalysisOutput> last;
  const auto untraced_pass = [&](int threads) {
    Tracer off(false);
    PhaseClock clock;
    Counts counts;
    last.clear();  // the previous pass's outputs must not raise the peak RSS
    last = reanalyze_pass(paths, threads, off, clock, checks, counts);
    return clock.seconds();
  };
  LayerReport layers;
  Metrics metrics;
  if (!a.trace) {
    const TimedSummary run = timed_passes(
        a.seconds, [&] { return untraced_pass(kTimedThreads); });
    const double rss = peak_rss_mib();
    probe(last.front(), a, kCheckRequests, checks);
    report_timing("run", run);
    // setup_s comes from the setup phase; run.py adds it in.
    put_end_to_end(metrics, 0.0, run.scaled_s, rss);
    metrics.erase("setup_s");
  } else {
    const double untraced = untraced_pass(kTimedThreads);
    traced_passes(untraced, checks, layers,
                  [&](Tracer& t, PhaseClock& c, Counts& counts) {
                    last = reanalyze_pass(paths, kTimedThreads, t, c, checks,
                                          counts);
                  });
    // Threads 0 is the library's default pool (resolve_threads).
    layers.parallel_speedup = untraced / untraced_pass(0);
    probe(last.front(), a, kProbeRequests, checks, &layers);
  }
  print_result(checks, a.trace ? layers.metrics(false) : metrics);
  return checks.failed == 0 ? 0 : 1;
}

/// Setup phase: simulate and write the archives the run phase reads.
int run_setup(const Args& a) {
  Checks checks;
  const std::vector<CampaignSpec> specs = reanalyze_specs(a);
  const std::vector<std::string> paths = archive_paths(a, specs.size());
  Tracer tracer(a.trace);
  LayerReport layers;
  const Registry before = registry_counters();
  // Untraced runs set up kSetups times (each rewrites the same archives),
  // timed like the timed passes; a traced run sets up once.
  std::vector<Timed> setups;
  for (std::size_t round = 0; round < (a.trace ? 1 : kSetups); ++round) {
    setups.push_back(timed_on_cpu(round, [&] {
      PhaseClock clock;
      for (std::size_t k = 0; k < specs.size(); ++k) {
        simulate_to_archive(specs[k], paths[k], tracer, layers.counts);
      }
      clock.pause();
      return clock.seconds();
    }));
  }
  unpin();
  layers.registry = registry_delta(before, registry_counters());
  layers.add_spans(tracer);
  Metrics metrics;
  if (a.trace) {
    metrics = layers.metrics(true);
  } else {
    const TimedSummary setup = summarize(setups);
    report_timing("set-up", setup);
    metrics["setup_s"] = {setup.scaled_s, "s"};
  }
  print_result(checks, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args a = parse_args(argc, argv);
    (void)allowed_cpus();  // record the CPU set before anything is pinned
    if (a.phase == "setup") return run_setup(a);
    if (a.workload == "campaign") return run_campaign(a);
    return run_reanalyze(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
