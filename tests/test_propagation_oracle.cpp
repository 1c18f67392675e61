// Independent oracle for routing::Propagator. The same valley-free model
// — three phases (customer routes climbing, one peer hop plus sibling
// spread, provider routes descending), the leak pass with the leaker's
// first-pass chain pinned — solved by plain fixpoint iteration: every
// round recomputes each open node's best offer from its neighbors'
// current routes until no table entry changes. No queue, no buckets, no
// visiting order. Randomized small graphs (siblings, prepends,
// announce_to, transit rules) each run with ROV, a leaker and a second
// MOAS/hijack source, then a few units of a generated 2024 topology with
// their assigned policies; every node's (cls, dist, parent, edge_prepend,
// source) must match Propagator::compute.
#include <gtest/gtest.h>

#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "net/rng.h"
#include "routing/policy_engine.h"
#include "routing/propagation.h"
#include "routing/rov.h"
#include "topo/era.h"
#include "topo/topology.h"

namespace bgpatoms::routing {
namespace {

using topo::AsGraph;
using topo::kNoNode;
using topo::Neighbor;
using topo::NodeId;
using topo::Rel;
using topo::Tier;

struct Offer {
  std::uint32_t dist = UINT32_MAX;
  std::uint32_t rank = 0;
  net::Asn parent_asn = 0;
  NodeId parent = kNoNode;
  std::uint8_t prepend = 0;
  std::uint16_t source = kNoSource;

  bool operator<(const Offer& o) const {
    return std::tie(dist, rank, parent_asn) <
           std::tie(o.dist, o.rank, o.parent_asn);
  }
  bool operator==(const Offer&) const = default;
};

// One propagation pass by fixpoint iteration. `first`/`leaker` are set
// for the leak pass: the leaker's first-pass parent chain is pinned and
// the leaker offers its route to providers and peers without the export
// rule.
RouteTable fixpoint_pass(const AsGraph& g, std::span<const RouteSource> srcs,
                         const PolicyEngine& engine, const RouteTable* first,
                         NodeId leaker) {
  const std::size_t n = g.size();
  RouteTable t;
  t.dist.assign(n, UINT32_MAX);
  t.cls.assign(n, RouteClass::kNone);
  t.parent.assign(n, kNoNode);
  t.edge_prepend.assign(n, 0);
  t.source.assign(n, kNoSource);
  for (std::uint16_t i = 0; i < srcs.size(); ++i) {
    if (t.cls[srcs[i].origin] != RouteClass::kNone) continue;
    t.dist[srcs[i].origin] = 0;
    t.cls[srcs[i].origin] = RouteClass::kSelf;
    t.source[srcs[i].origin] = i;
  }
  if (first != nullptr) {
    for (NodeId v = leaker;; v = first->parent[v]) {
      if (t.cls[v] == RouteClass::kNone) {
        t.dist[v] = first->dist[v];
        t.cls[v] = first->cls[v];
        t.parent[v] = first->parent[v];
        t.edge_prepend[v] = first->edge_prepend[v];
        t.source[v] = first->source[v];
      }
      if (first->cls[v] == RouteClass::kSelf) break;
    }
  }

  // Offers along a cycle of nodes that only reach each other would count
  // to infinity once their real source is gone, so offers longer than
  // any simple path are discarded: a hop adds 1 entry plus at most 3
  // origin prepends and 3 transit rules of at most 3 (random_policy),
  // i.e. at most 16 per node.
  const std::size_t max_dist = 16 * n;

  // One phase: nodes routed before it offer over edges `seed_ok(cls,
  // rel)` admits, nodes routed in it over `spread_ok(rel)`, and the
  // leaker over `leak_rel` edges regardless of the export rule.
  auto phase = [&](RouteClass assign, auto seed_ok, auto spread_ok,
                   std::optional<Rel> leak_rel) {
    const std::vector<RouteClass> before = t.cls;
    std::vector<Offer> cur(n);
    for (std::size_t round = 0;; ++round) {
      ASSERT_LT(round, max_dist + n + 8) << "fixpoint did not converge";
      std::vector<Offer> next(n);
      for (NodeId u = 0; u < n; ++u) {
        const bool routed = before[u] != RouteClass::kNone;
        if (!routed && cur[u].dist == UINT32_MAX) continue;
        const std::uint32_t dist = routed ? t.dist[u] : cur[u].dist;
        const std::uint16_t si = routed ? t.source[u] : cur[u].source;
        for (const Neighbor& nb : g.node(u).neighbors) {
          if (before[nb.node] != RouteClass::kNone) continue;
          const bool leak = u == leaker && leak_rel && nb.rel == *leak_rel;
          const bool normal = routed ? seed_ok(before[u], nb.rel)
                                     : spread_ok(nb.rel);
          for (const bool via_leak : {false, true}) {
            if (via_leak ? !leak : !normal) continue;
            std::uint8_t prepend = 0;
            if (!via_leak &&
                !engine.allow_export(srcs[si], before[u] == RouteClass::kSelf,
                                     u, nb, prepend)) {
              continue;
            }
            if (!engine.allow_import(srcs[si], nb.node)) continue;
            const Offer o{dist + 1 + prepend,
                          engine.selection_rank(srcs[si], si), g.node(u).asn,
                          u, prepend, si};
            if (o.dist <= max_dist && o < next[nb.node]) next[nb.node] = o;
          }
        }
      }
      if (next == cur) break;
      cur = std::move(next);
    }
    for (NodeId v = 0; v < n; ++v) {
      if (cur[v].dist == UINT32_MAX) continue;
      t.cls[v] = assign;
      t.dist[v] = cur[v].dist;
      t.parent[v] = cur[v].parent;
      t.edge_prepend[v] = cur[v].prepend;
      t.source[v] = cur[v].source;
    }
  };

  const auto self_or_customer = [](RouteClass c) {
    return c == RouteClass::kSelf || c == RouteClass::kCustomer;
  };
  const auto climb = [](Rel r) {
    return r == Rel::kProvider || r == Rel::kSibling;
  };
  const auto descend = [](Rel r) {
    return r == Rel::kCustomer || r == Rel::kSibling;
  };
  const std::optional<Rel> no_leak;
  phase(RouteClass::kCustomer,
        [&](RouteClass c, Rel r) { return self_or_customer(c) && climb(r); },
        climb, first ? std::optional(Rel::kProvider) : no_leak);
  phase(RouteClass::kPeer,
        [&](RouteClass c, Rel r) {
          return self_or_customer(c) && r == Rel::kPeer;
        },
        [](Rel r) { return r == Rel::kSibling; },
        first ? std::optional(Rel::kPeer) : no_leak);
  phase(RouteClass::kProvider, [&](RouteClass, Rel r) { return descend(r); },
        descend, no_leak);
  return t;
}

RouteTable fixpoint(const AsGraph& g, std::span<const RouteSource> srcs,
                    const PolicyEngine& engine) {
  const RouteTable first = fixpoint_pass(g, srcs, engine, nullptr, kNoNode);
  const NodeId leaker = engine.leaker();
  if (leaker < g.size() && (first.cls[leaker] == RouteClass::kPeer ||
                            first.cls[leaker] == RouteClass::kProvider)) {
    return fixpoint_pass(g, srcs, engine, &first, leaker);
  }
  return first;
}

/// GaoRexfordEngine with a rank preferring source 1 (a depref-style key
/// that outranks the neighbor-ASN tie-break).
class PreferSecond final : public PolicyEngine {
 public:
  explicit PreferSecond(const GaoRexfordEngine& base) : base_(base) {}
  bool allow_export(const RouteSource& src, bool from_is_origin, NodeId from,
                    const Neighbor& to, std::uint8_t& prepend) const override {
    return base_.allow_export(src, from_is_origin, from, to, prepend);
  }
  bool allow_import(const RouteSource& src, NodeId node) const override {
    return base_.allow_import(src, node);
  }
  std::uint32_t selection_rank(const RouteSource&,
                               std::uint16_t source_index) const override {
    return source_index == 1 ? 0 : 1;
  }
  NodeId leaker() const override { return base_.leaker(); }

 private:
  const GaoRexfordEngine& base_;
};

/// A random small AS graph: a provider hierarchy over shuffled ASNs plus
/// peer and sibling edges, interconnection points in four regions.
AsGraph random_graph(Rng& rng) {
  AsGraph g;
  const auto n = static_cast<NodeId>(rng.next_int(6, 40));
  std::vector<net::Asn> asns(n);
  for (NodeId i = 0; i < n; ++i) asns[i] = 100 + 7 * i;
  rng.shuffle(asns);
  for (NodeId i = 0; i < n; ++i) {
    const Tier tier = i < 3 ? Tier::kTier1
                      : i < n / 3 ? Tier::kTransit
                                  : Tier::kEdge;
    g.add_node(asns[i], tier, static_cast<std::uint16_t>(rng.next_below(4)),
               asns[i]);
  }
  const auto region = [&] {
    return static_cast<std::uint16_t>(rng.next_below(4));
  };
  for (NodeId i = 1; i < n; ++i) {
    const auto providers = rng.next_int(1, 3);
    for (std::int64_t k = 0; k < providers; ++k) {
      g.add_edge(i, static_cast<NodeId>(rng.next_below(i)), Rel::kProvider,
                 region());
    }
  }
  for (NodeId k = 0; k < n; ++k) {
    const auto a = static_cast<NodeId>(rng.next_below(n));
    const auto b = static_cast<NodeId>(rng.next_below(n));
    if (a != b) g.add_edge(a, b, Rel::kPeer, region());
  }
  for (NodeId k = 0; k < n / 8 + 1; ++k) {
    const auto a = static_cast<NodeId>(rng.next_below(n));
    const auto b = static_cast<NodeId>(rng.next_below(n));
    if (a != b) g.add_edge(a, b, Rel::kSibling, region());
  }
  return g;
}

UnitPolicy random_policy(const AsGraph& g, NodeId origin, Rng& rng) {
  UnitPolicy p;
  const auto degree = g.node(origin).neighbors.size();
  for (std::uint16_t i = 0; i < degree; ++i) {
    if (rng.chance(0.3)) p.announce_to.push_back(i);
    if (rng.chance(0.3)) p.prepend_to.push_back(i);
  }
  p.prepend_count = static_cast<std::uint8_t>(rng.next_below(4));
  p.no_export = rng.chance(0.1);
  for (int k = 0; k < 3; ++k) {
    TransitRule rule;
    rule.kind = static_cast<TransitRule::Kind>(rng.next_below(3));
    rule.at = static_cast<NodeId>(rng.next_below(g.size()));
    rule.neighbor = static_cast<NodeId>(rng.next_below(g.size()));
    rule.region = static_cast<std::uint16_t>(rng.next_below(4));
    rule.prepend = static_cast<std::uint8_t>(rng.next_int(1, 3));
    p.transit_rules.push_back(rule);
  }
  return p;
}

void expect_tables_eq(const RouteTable& want, const RouteTable& got,
                      const std::string& what) {
  ASSERT_EQ(want.cls.size(), got.cls.size()) << what;
  for (NodeId v = 0; v < want.cls.size(); ++v) {
    EXPECT_EQ(want.cls[v], got.cls[v]) << what << " node " << v;
    EXPECT_EQ(want.dist[v], got.dist[v]) << what << " node " << v;
    EXPECT_EQ(want.parent[v], got.parent[v]) << what << " node " << v;
    EXPECT_EQ(want.edge_prepend[v], got.edge_prepend[v])
        << what << " node " << v;
    EXPECT_EQ(want.source[v], got.source[v]) << what << " node " << v;
  }
}

TEST(PropagationOracle, MatchesFixpointOnRandomGraphs) {
  Rng rng(20240917);
  std::size_t leak_passes = 0;
  // One RouteTable reused across every run: stale scratch from a larger
  // graph or an earlier leak pass must not leak into the next result.
  RouteTable got;
  // Runs `origin`'s unit alone and against `second`'s (MOAS / hijack:
  // the second origin fails ROV where anyone validates) through the
  // plain, ROV+leak and ranked engines, each against the fixpoint.
  const auto check = [&](const AsGraph& g, NodeId origin,
                         const UnitPolicy* p1, NodeId second,
                         const UnitPolicy* p2, const std::string& what) {
    const auto pick = [&] {
      return static_cast<NodeId>(rng.next_below(g.size()));
    };
    RovState rov;
    for (NodeId v = 0; v < g.size(); ++v) {
      if (rng.chance(0.3)) rov.set_validating(v, true);
    }
    const std::vector<RouteSource> single{{origin, p1, false}};
    const std::vector<RouteSource> multi{{origin, p1, false},
                                         {second, p2, true}};
    const GaoRexfordEngine plain(g);
    const GaoRexfordEngine secured(g, &rov, pick());
    const PreferSecond ranked(secured);
    const Propagator prop(g);

    struct Case {
      const char* name;
      std::span<const RouteSource> sources;
      const PolicyEngine& engine;
    };
    const Case cases[] = {{"plain", single, plain},
                          {"rov+leak", single, secured},
                          {"moas+rov+leak", multi, secured},
                          {"ranked moas+rov+leak", multi, ranked}};
    for (const Case& c : cases) {
      prop.compute(c.sources, c.engine, got);
      const RouteTable want = fixpoint(g, c.sources, c.engine);
      expect_tables_eq(want, got, what + " " + c.name);
      const NodeId leaker = c.engine.leaker();
      if (leaker != kNoNode && want.cls[leaker] != RouteClass::kSelf &&
          want.cls[leaker] != RouteClass::kCustomer &&
          want.cls[leaker] != RouteClass::kNone) {
        ++leak_passes;
      }
    }
  };

  for (int trial = 0; trial < 400; ++trial) {
    const AsGraph g = random_graph(rng);
    const auto pick = [&] {
      return static_cast<NodeId>(rng.next_below(g.size()));
    };
    const NodeId origin = pick();
    const NodeId second = pick();
    const UnitPolicy p1 = random_policy(g, origin, rng);
    const UnitPolicy p2 = random_policy(g, second, rng);
    check(g, origin, &p1, second, &p2, "trial " + std::to_string(trial));
    if (HasFailure()) return;
  }
  // The trials must actually exercise the leak pass.
  EXPECT_GT(leak_passes, 50u);

  // A realistic substrate as well: generated 2024 topology units with the
  // policies the simulator assigns them, after the random graphs so the
  // trials above keep their draws.
  const topo::Topology topo =
      topo::generate_topology(topo::era_params_v4(2024.0, 0.02), 42);
  const PolicySet policies = assign_policies(topo, 42);
  ASSERT_GT(policies.units.size(), 40u);
  for (std::size_t k = 0; k < 4; ++k) {
    const OriginUnit& a = policies.units[k * 10];
    const OriginUnit& b = policies.units[k * 10 + 5];
    check(topo.graph, a.origin, &a.policy, b.origin, &b.policy,
          "era 2024 unit " + std::to_string(a.id));
    if (HasFailure()) return;
  }
}

}  // namespace
}  // namespace bgpatoms::routing
