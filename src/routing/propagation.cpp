#include "routing/propagation.h"

#include <algorithm>
#include <cassert>
#include <tuple>

namespace bgpatoms::routing {

using topo::AsGraph;
using topo::kNoNode;
using topo::Neighbor;
using topo::NodeId;
using topo::Rel;

Propagator::Propagator(const AsGraph& graph) : graph_(graph) {}

void Propagator::compute(NodeId origin, const UnitPolicy* policy,
                         RouteTable& out) const {
  const RouteSource source{origin, policy, /*rov_invalid=*/false};
  const GaoRexfordEngine engine(graph_);
  compute(std::span<const RouteSource>(&source, 1), engine, out);
}

void Propagator::compute(std::span<const RouteSource> sources,
                         const PolicyEngine& engine, RouteTable& t) const {
  compute_pass(sources, engine, {}, kNoNode, t);

  // Route-leak second pass: re-run with the leaker's learned route
  // re-exported valley-violatingly. A leaker whose route is already
  // customer-class (or its own) exports everywhere under the normal rule,
  // so only a peer/provider-class leaker route needs the extra pass.
  const NodeId leaker = engine.leaker();
  if (leaker >= graph_.size()) return;
  if (t.cls[leaker] != RouteClass::kPeer &&
      t.cls[leaker] != RouteClass::kProvider) {
    return;
  }

  // Pin the leaker's full first-pass parent chain: those ASes are on the
  // leaked route's AS path and would reject the looped announcement, so
  // they keep their original entries (this is what keeps parent chains
  // acyclic in the second pass).
  std::vector<PinnedEntry> pinned;
  for (NodeId cur = leaker;; cur = t.parent[cur]) {
    pinned.push_back(PinnedEntry{cur, t.dist[cur], t.cls[cur], t.parent[cur],
                                 t.edge_prepend[cur], t.source[cur]});
    if (t.cls[cur] == RouteClass::kSelf) break;
  }
  compute_pass(sources, engine, pinned, leaker, t);
}

void Propagator::compute_pass(std::span<const RouteSource> sources,
                              const PolicyEngine& engine,
                              std::span<const PinnedEntry> pinned,
                              NodeId leaker, RouteTable& t) const {
  using Candidate = RouteTable::Candidate;
  const std::size_t n = graph_.size();
  t.dist.assign(n, UINT32_MAX);
  t.cls.assign(n, RouteClass::kNone);
  t.parent.assign(n, kNoNode);
  t.edge_prepend.assign(n, 0);
  t.source.assign(n, kNoSource);
  t.pending.assign(n, Candidate{});

  for (std::uint16_t i = 0; i < sources.size(); ++i) {
    const NodeId origin = sources[i].origin;
    if (t.cls[origin] != RouteClass::kNone) continue;  // first source wins
    t.dist[origin] = 0;
    t.cls[origin] = RouteClass::kSelf;
    t.source[origin] = i;
  }
  for (const PinnedEntry& e : pinned) {
    if (t.cls[e.node] != RouteClass::kNone) continue;  // origins stay kSelf
    t.dist[e.node] = e.dist;
    t.cls[e.node] = e.cls;
    t.parent[e.node] = e.parent;
    t.edge_prepend[e.node] = e.prepend;
    t.source[e.node] = e.source;
  }

  // Buckets lo..hi may hold nodes queued in the current phase.
  std::uint32_t lo = UINT32_MAX;
  std::uint32_t hi = 0;

  // Offers a candidate route at `to` learned from `from`; it replaces the
  // node's pending one when its selection key is smaller. `leak_edge`
  // bypasses the export rule (valley-violating re-export); the import
  // filter still applies.
  auto relax = [&](NodeId from, const Neighbor& to, bool leak_edge = false) {
    if (t.cls[to.node] != RouteClass::kNone) return;  // finalized earlier
    const std::uint16_t si = t.source[from];
    const RouteSource& src = sources[si];
    std::uint8_t prepend = 0;
    if (!leak_edge) {
      const bool from_is_origin = t.cls[from] == RouteClass::kSelf;
      if (!engine.allow_export(src, from_is_origin, from, to, prepend)) {
        return;
      }
    }
    if (!engine.allow_import(src, to.node)) return;
    const Candidate c{t.dist[from] + 1 + prepend,
                      engine.selection_rank(src, si), graph_.node(from).asn,
                      from, prepend, si};
    Candidate& cur = t.pending[to.node];
    if (std::tie(c.dist, c.rank, c.parent_asn) >=
        std::tie(cur.dist, cur.rank, cur.parent_asn)) {
      return;
    }
    if (c.dist != cur.dist) {
      if (c.dist >= t.buckets.size()) t.buckets.resize(c.dist + 1);
      t.buckets[c.dist].push_back(to.node);
      lo = std::min(lo, c.dist);
      hi = std::max(hi, c.dist);
    }
    cur = c;
  };

  // Runs one phase: sweeps the buckets in path-length order, finalizing
  // each queued node with `assign_cls` and its pending candidate, and
  // relaxes the node's outgoing edges when `edge_ok(rel)` holds. A node
  // whose candidate improved to a shorter length was finalized from that
  // earlier bucket and is skipped here.
  auto drain = [&](RouteClass assign_cls, auto edge_ok) {
    for (std::uint32_t d = lo; d <= hi; ++d) {
      // Relaxing appends only to buckets > d (and may grow `buckets`), so
      // bucket d is indexed afresh on every step.
      for (std::size_t i = 0; i < t.buckets[d].size(); ++i) {
        const NodeId v = t.buckets[d][i];
        if (t.cls[v] != RouteClass::kNone) continue;
        const Candidate c = t.pending[v];
        assert(c.dist == d);
        t.cls[v] = assign_cls;
        t.dist[v] = c.dist;
        t.parent[v] = c.parent;
        t.edge_prepend[v] = c.prepend;
        t.source[v] = c.source;
        for (const auto& nb : graph_.node(v).neighbors) {
          if (edge_ok(nb.rel)) relax(v, nb);
        }
      }
      t.buckets[d].clear();
    }
    lo = UINT32_MAX;
    hi = 0;
  };

  // Relaxes the leaker's edges of relation `rel` as valley violations.
  auto relax_leak = [&](Rel rel) {
    if (leaker == kNoNode) return;
    for (const auto& nb : graph_.node(leaker).neighbors) {
      if (nb.rel == rel) relax(leaker, nb, /*leak_edge=*/true);
    }
  };

  // --- phase 1: customer routes climb provider (and sibling) edges -----
  const auto climb_ok = [](Rel r) {
    return r == Rel::kProvider || r == Rel::kSibling;
  };
  if (pinned.empty()) {
    for (const RouteSource& s : sources) {
      if (t.source[s.origin] == kNoSource) continue;
      for (const auto& nb : graph_.node(s.origin).neighbors) {
        if (climb_ok(nb.rel)) relax(s.origin, nb);
      }
    }
  } else {
    // Leak pass: pinned chain nodes were finalized before this phase, so
    // their climb edges must be re-relaxed here too.
    for (NodeId u = 0; u < n; ++u) {
      if (t.cls[u] != RouteClass::kSelf && t.cls[u] != RouteClass::kCustomer)
        continue;
      for (const auto& nb : graph_.node(u).neighbors) {
        if (climb_ok(nb.rel)) relax(u, nb);
      }
    }
  }
  // The leaked route reaches the leaker's providers as if customer-
  // learned: it enters selection as customer class at the receivers.
  relax_leak(Rel::kProvider);
  drain(RouteClass::kCustomer, climb_ok);

  // --- phase 2: one peer hop, then sibling spread ------------------------
  for (NodeId u = 0; u < n; ++u) {
    if (t.cls[u] != RouteClass::kSelf && t.cls[u] != RouteClass::kCustomer)
      continue;
    for (const auto& nb : graph_.node(u).neighbors) {
      if (nb.rel == Rel::kPeer) relax(u, nb);
    }
  }
  relax_leak(Rel::kPeer);
  drain(RouteClass::kPeer, [](Rel r) { return r == Rel::kSibling; });

  // --- phase 3: provider routes descend customer (and sibling) edges ---
  const auto descend_ok = [](Rel r) {
    return r == Rel::kCustomer || r == Rel::kSibling;
  };
  for (NodeId u = 0; u < n; ++u) {
    if (t.cls[u] == RouteClass::kNone) continue;
    for (const auto& nb : graph_.node(u).neighbors) {
      if (descend_ok(nb.rel)) relax(u, nb);
    }
  }
  drain(RouteClass::kProvider, descend_ok);
}

void Propagator::append_path(const RouteTable& t, NodeId node,
                             std::vector<net::Asn>& out) const {
  if (node >= t.cls.size() || t.cls[node] == RouteClass::kNone) return;
  NodeId cur = node;
  while (t.cls[cur] != RouteClass::kSelf) {
    const NodeId p = t.parent[cur];
    assert(p != kNoNode);
    const net::Asn asn = graph_.node(p).asn;
    for (int i = 0; i <= t.edge_prepend[cur]; ++i) out.push_back(asn);
    cur = p;
  }
}

}  // namespace bgpatoms::routing
