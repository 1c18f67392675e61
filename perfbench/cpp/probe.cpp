#include "probe.h"

#include <algorithm>
#include <cstdio>
#include <random>

#include "report/json.h"

namespace perfbench {

using namespace bgpatoms;

Plan make_plan(const Truth& truth, std::size_t n, std::uint64_t seed) {
  using report::json::Object;
  using report::json::Value;
  Plan plan;
  plan.requests.reserve(n);
  plan.ops.reserve(n);
  std::mt19937_64 rng(seed);
  const auto rows = static_cast<std::uint32_t>(truth.prefixes.size());
  const auto text = [&](std::uint32_t row) {
    return truth.prefixes[row].to_string();
  };
  const auto add = [&](Op op, Object request) {
    plan.requests.push_back(Value(std::move(request)).serialize());
    plan.ops.push_back(op);
  };
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t dice = rng() % 100;
    const auto a = static_cast<std::uint32_t>(rng() % rows);
    if (dice < 70) {
      const std::uint64_t form = rng() % 10;
      std::string q;
      if (form < 6) {
        q = text(a);
      } else if (form < 9) {
        q = truth.prefixes[a].address().to_string();
      } else {
        // The simulator never allocates class-E space, so this exercises
        // the miss path (the oracle confirms it rather than assuming).
        q = "240." + std::to_string(rng() % 256) + "." +
            std::to_string(rng() % 256) + ".1";
      }
      add(kLookup, Object{{"op", Value("lookup")}, {"q", Value(q)}});
    } else if (dice < 85) {
      const auto b = static_cast<std::uint32_t>(rng() % rows);
      add(kEquiv,
          Object{{"op", Value("equiv")},
                 {"a", Value(text(a))},
                 {"b", Value(text(b))}});
    } else if (dice < 95) {
      add(kHistory, Object{{"op", Value("history")}, {"q", Value(text(a))}});
    } else {
      add(kStats, Object{{"op", Value("stats")}});
    }
  }
  return plan;
}

namespace {

/// The reply's leading "ok" member is true (replies put it first).
bool reply_ok(std::string_view body) {
  const std::size_t key = body.substr(0, 16).find("\"ok\"");
  if (key == std::string_view::npos) return false;
  std::size_t i = key + 4;
  while (i < body.size() && (body[i] == ' ' || body[i] == ':')) ++i;
  return body.substr(i, 4) == "true";
}

}  // namespace

HandleResult handle_pass(const query::ServeState& state, const Plan& plan,
                         Tracer& tracer, Checks& checks) {
  static const std::array<std::string, 4> span_names = {
      "query.handle.lookup", "query.handle.equiv", "query.handle.history",
      "query.handle.stats"};
  HandleResult out;
  std::uint64_t lookup_bytes = 0;
  std::uint64_t errors = 0;
  // Time is the summed handle() time: checking replies is the benchmark's
  // own work, not the query layer's.
  std::uint64_t pass_ns = 0;
  for (std::size_t i = 0; i < plan.requests.size(); ++i) {
    const Op op = plan.ops[i];
    const std::uint64_t t0 = now_ns();
    query::ServeState::Reply reply;
    {
      auto s = tracer.span(span_names[op]);
      reply = state.handle(plan.requests[i]);
    }
    const std::uint64_t ns = now_ns() - t0;
    pass_ns += ns;
    out.latencies[op].push_back(ns);
    if (op == kLookup) lookup_bytes += reply.body.size();
    errors += !reply_ok(reply.body);
  }
  out.seconds = static_cast<double>(pass_ns) * 1e-9;
  checks.expect(errors == 0, "every planned request gets an ok reply (" +
                                 std::to_string(errors) + " errors)");
  const std::size_t lookups = out.latencies[kLookup].size();
  out.lookup_reply_bytes =
      lookups > 0 ? static_cast<double>(lookup_bytes) /
                        static_cast<double>(lookups)
                  : 0.0;
  return out;
}

namespace {

constexpr std::uint32_t kNoRow = UINT32_MAX;

/// Longest truth prefix covering `q`, by linear scan; kNoRow if none.
std::uint32_t scan_lpm(const Truth& truth, const net::Prefix& q) {
  std::uint32_t best = kNoRow;
  for (std::uint32_t r = 0; r < truth.prefixes.size(); ++r) {
    const net::Prefix& p = truth.prefixes[r];
    if (p.contains(q) &&
        (best == kNoRow || p.length() > truth.prefixes[best].length())) {
      best = r;
    }
  }
  return best;
}

/// The reply's resolution of one point query agrees with row `want`.
bool resolution_matches(const report::json::Value& doc, const Truth& truth,
                        std::uint32_t want) {
  const auto* found = doc.find("found");
  if (found == nullptr || found->as_bool() != (want != kNoRow)) {
    return false;
  }
  if (want == kNoRow) return true;
  const auto* matched = doc.find("matched");
  const auto* atom = doc.find("atom");
  return matched != nullptr && atom != nullptr &&
         matched->as_string() == truth.prefixes[want].to_string() &&
         atom->as_uint64() == truth.atom_of_row[want];
}

}  // namespace

void check_with_oracle(const query::ServeState& state, const Plan& plan,
                       const Truth& truth, std::size_t sample,
                       Checks& checks) {
  std::vector<std::size_t> probes;
  for (std::size_t i = 0; i < plan.ops.size(); ++i) {
    if (plan.ops[i] == kLookup || plan.ops[i] == kEquiv) probes.push_back(i);
  }
  const std::size_t stride = std::max<std::size_t>(1, probes.size() / sample);
  std::size_t checked = 0, agreed = 0;
  for (std::size_t k = 0; k < probes.size(); k += stride) {
    const std::size_t i = probes[k];
    const auto request = report::json::Value::parse(plan.requests[i]);
    const auto doc =
        report::json::Value::parse(state.handle(plan.requests[i]).body);
    const auto lpm = [&](const char* field) {
      return scan_lpm(truth, *net::parse_prefix(request.find(field)->as_string()));
    };
    ++checked;
    if (plan.ops[i] == kLookup) {
      agreed += resolution_matches(doc, truth, lpm("q"));
    } else {
      const std::uint32_t a = lpm("a"), b = lpm("b");
      const bool want = a != kNoRow && b != kNoRow &&
                        truth.atom_of_row[a] == truth.atom_of_row[b];
      const auto* eq = doc.find("equivalent");
      const auto* ra = doc.find("a");
      const auto* rb = doc.find("b");
      agreed += eq != nullptr && eq->as_bool() == want && ra != nullptr &&
                rb != nullptr && resolution_matches(*ra, truth, a) &&
                resolution_matches(*rb, truth, b);
    }
  }
  checks.expect(checked > 0 && agreed == checked,
                "sampled replies agree with the linear-scan oracle (" +
                    std::to_string(agreed) + "/" + std::to_string(checked) +
                    ")");
}

double index_lookup_us(const query::AtomIndex& index, const Plan& plan) {
  std::vector<net::Prefix> queries;
  for (std::size_t i = 0; i < plan.requests.size(); ++i) {
    if (plan.ops[i] != kLookup) continue;
    const auto request = report::json::Value::parse(plan.requests[i]);
    queries.push_back(*net::parse_prefix(request.find("q")->as_string()));
  }
  if (queries.empty()) return 0.0;
  std::vector<double> sweeps;
  std::uint64_t sink = 0;
  for (int rep = 0; rep < 7; ++rep) {
    const std::uint64_t t0 = now_ns();
    for (const net::Prefix& q : queries) {
      const auto hit = index.lookup(q);
      sink += hit ? hit->atom : 1;
    }
    sweeps.push_back(static_cast<double>(now_ns() - t0) * 1e-3 /
                     static_cast<double>(queries.size()));
  }
  // Keeps the lookups observable so the sweeps cannot be optimized away.
  if (sink == 0) std::fprintf(stderr, "perfbench: empty lookup sweep\n");
  return median(sweeps);
}

}  // namespace perfbench
