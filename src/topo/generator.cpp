// Topology generator: builds the AS graph, allocates prefixes, and selects
// collector vantage points for a given era.
//
// Construction order matters: tier-1 clique first, then transit providers
// attaching upward (preferential, region-biased), then content and edge
// networks. Sibling chains model multi-AS organizations (the paper's DoD
// example, §4.3) whose prefixes surface several sibling hops away from the
// first externally-visible AS.
#include <algorithm>
#include <cassert>
#include <cmath>

#include "net/rng.h"
#include "obs/obs.h"
#include "topo/topology.h"

namespace bgpatoms::topo {

namespace {

class Generator {
 public:
  Generator(const EraParams& p, std::uint64_t seed) : p_(p), rng_(seed) {}

  Topology run() {
    build_nodes();
    build_edges();
    allocate_prefixes();
    pick_vantage_points();
    topo_.params = p_;
    return std::move(topo_);
  }

 private:
  // ---- node construction ------------------------------------------------

  void build_nodes() {
    const int n_transit =
        std::max(4, static_cast<int>(p_.n_as * p_.transit_frac));
    const int n_content =
        std::max(1, static_cast<int>(p_.n_as * p_.content_frac));
    const int n_edge = std::max(8, p_.n_as - p_.n_tier1 - n_transit -
                                       n_content - p_.fiti_ases);

    for (int i = 0; i < p_.n_tier1; ++i) {
      add_as(Tier::kTier1, static_cast<std::uint16_t>(i % p_.n_regions));
    }
    for (int i = 0; i < n_transit; ++i) {
      add_as(Tier::kTransit, random_region());
    }
    for (int i = 0; i < n_content; ++i) {
      add_as(Tier::kContent, random_region());
    }
    // Sibling organizations: chains of edge ASes sharing an org id. Only
    // the head gets external providers (in build_edges); prefixes later
    // originate across the whole chain.
    const int n_sibling_orgs =
        static_cast<int>(p_.n_as * p_.sibling_org_prob + 0.5);
    int edge_budget = n_edge;
    for (int i = 0; i < n_sibling_orgs && edge_budget > 4; ++i) {
      const int chain = static_cast<int>(
          std::min<std::uint64_t>(8, 2 + rng_.heavy_tail(
                                           std::max(1.0, p_.sibling_chain_mean - 2))));
      const std::uint16_t region = random_region();
      const std::uint32_t org = next_org_++;
      NodeId prev = kNoNode;
      for (int k = 0; k < chain && edge_budget > 0; ++k, --edge_budget) {
        const NodeId id = add_as(Tier::kEdge, region, org);
        if (prev != kNoNode) {
          topo_.graph.add_edge(prev, id, Rel::kSibling, region);
        } else {
          sibling_heads_.push_back(id);
        }
        prev = id;
      }
    }
    for (int i = 0; i < edge_budget; ++i) {
      add_as(Tier::kEdge, random_region());
    }
    // FITI-style burst (IPv6 2021+): single-prefix stub ASes, one org.
    if (p_.fiti_ases > 0) {
      const std::uint32_t org = next_org_++;
      const std::uint16_t region = random_region();
      for (int i = 0; i < p_.fiti_ases; ++i) {
        fiti_nodes_.push_back(add_as(Tier::kEdge, region, org));
      }
    }
  }

  NodeId add_as(Tier tier, std::uint16_t region, std::uint32_t org = 0) {
    if (org == 0) org = next_org_++;
    const net::Asn asn = next_asn();
    const NodeId id = topo_.graph.add_node(asn, tier, region, org);
    if (tier == Tier::kTransit) transits_.push_back(id);
    if (tier == Tier::kContent) contents_.push_back(id);
    return id;
  }

  net::Asn next_asn() {
    // Sequential with small random gaps, skipping bogon ranges; late eras
    // mix in 32-bit ASNs the way the real registry does.
    do {
      asn_counter_ += 1 + rng_.next_below(3);
      if (p_.year >= 2012 && rng_.chance(0.15) && asn_counter_ < 100000) {
        asn_counter_ += 396000;  // jump into 32-bit ASN space once
      }
    } while (net::is_bogon_asn(asn_counter_));
    return asn_counter_;
  }

  std::uint16_t random_region() {
    return static_cast<std::uint16_t>(rng_.next_below(p_.n_regions));
  }

  // ---- edge construction --------------------------------------------------

  void build_edges() {
    auto& g = topo_.graph;
    // Tier-1 full peer clique.
    for (int i = 0; i < p_.n_tier1; ++i) {
      for (int j = i + 1; j < p_.n_tier1; ++j) {
        g.add_edge(static_cast<NodeId>(i), static_cast<NodeId>(j), Rel::kPeer);
      }
    }

    // Transit providers: attach upward preferentially (degree + region).
    for (NodeId t : transits_) {
      const int nprov = provider_count(p_.mh_transit_mean);
      attach_providers(t, nprov, /*allow_transit_providers=*/true);
    }
    // Same-region transit peering (IXPs), plus some cross-region.
    for (std::size_t i = 0; i < transits_.size(); ++i) {
      for (std::size_t j = i + 1; j < transits_.size(); ++j) {
        const auto& a = g.node(transits_[i]);
        const auto& b = g.node(transits_[j]);
        const double prob = a.region == b.region ? p_.peering_density
                                                 : p_.peering_density * 0.15;
        if (rng_.chance(prob)) {
          g.add_edge(transits_[i], transits_[j], Rel::kPeer, a.region);
        }
      }
    }

    // Content networks: 1-2 transit providers plus flattening-driven
    // peering with transits and other content networks.
    for (NodeId c : contents_) {
      attach_providers(c, 1 + (rng_.chance(0.6) ? 1 : 0), true);
      const int extra_peers =
          static_cast<int>(p_.flatten * 6 * rng_.next_double());
      for (int k = 0; k < extra_peers; ++k) {
        const NodeId other =
            rng_.chance(0.5) && !contents_.empty()
                ? contents_[rng_.next_below(contents_.size())]
                : transits_[rng_.next_below(transits_.size())];
        if (other != c) g.add_edge(c, other, Rel::kPeer);
      }
    }

    // Edge (stub) networks.
    for (NodeId v = 0; v < g.size(); ++v) {
      const auto& node = g.node(v);
      if (node.tier != Tier::kEdge) continue;
      const bool in_chain =
          std::any_of(node.neighbors.begin(), node.neighbors.end(),
                      [](const Neighbor& n) { return n.rel == Rel::kSibling; });
      const bool is_head =
          std::find(sibling_heads_.begin(), sibling_heads_.end(), v) !=
          sibling_heads_.end();
      if (in_chain && !is_head) continue;  // interior siblings: no providers
      const bool fiti =
          std::find(fiti_nodes_.begin(), fiti_nodes_.end(), v) !=
          fiti_nodes_.end();
      const int nprov = fiti ? 1 : provider_count(p_.mh_edge_mean);
      attach_providers(v, nprov, false);
      // Flattening: some stubs peer at IXPs too.
      if (!fiti && rng_.chance(p_.flatten * 0.1)) {
        const NodeId other = transits_[rng_.next_below(transits_.size())];
        if (other != v) g.add_edge(v, other, Rel::kPeer, node.region);
      }
    }
  }

  int provider_count(double mean) {
    // A substantial share of stubs stay single-homed (the population whose
    // selective export must happen at the transit — the d>=3 driver); the
    // multihomed rest follows a short heavy tail matching `mean`.
    if (rng_.chance(p_.single_home_prob)) return 1;
    const double extra = std::max(
        0.0, (mean - p_.single_home_prob) / (1.0 - p_.single_home_prob) - 2.0);
    int n = 2;
    if (extra > 0 && rng_.chance(std::min(0.9, extra))) {
      n += 1 + static_cast<int>(rng_.next_below(3));
    }
    return n;
  }

  void attach_providers(NodeId v, int count, bool allow_transit_providers) {
    auto& g = topo_.graph;
    const std::uint16_t region = g.node(v).region;
    for (int k = 0; k < count; ++k) {
      NodeId prov = kNoNode;
      for (int attempt = 0; attempt < 12 && prov == kNoNode; ++attempt) {
        NodeId cand;
        if (allow_transit_providers && rng_.chance(0.35)) {
          cand = static_cast<NodeId>(rng_.next_below(p_.n_tier1));
        } else {
          cand = transits_[rng_.next_below(transits_.size())];
        }
        if (cand == v) continue;
        // Region bias: prefer same-region providers.
        if (g.node(cand).region != region && !rng_.chance(0.3)) continue;
        // No provider cycles: providers must be earlier nodes (transits are
        // created before content/edge; among transits, insist on a lower id).
        if (g.node(v).tier == Tier::kTransit && cand >= v) continue;
        prov = cand;
      }
      if (prov == kNoNode) {
        prov = static_cast<NodeId>(rng_.next_below(p_.n_tier1));
        if (prov == v) continue;
      }
      g.add_edge(v, prov, Rel::kProvider, region);
    }
  }

  // ---- prefix allocation ----------------------------------------------

  void allocate_prefixes() {
    topo_.prefixes.resize(topo_.graph.size());
    for (NodeId v = 0; v < topo_.graph.size(); ++v) {
      const bool fiti = std::find(fiti_nodes_.begin(), fiti_nodes_.end(), v) !=
                        fiti_nodes_.end();
      if (fiti) {
        topo_.prefixes[v].push_back(next_fiti_prefix());
        continue;
      }
      // Per-AS prefix count: a large share of ASes announce exactly one
      // prefix; small multi-prefix ASes (2-4) fill the next band; the rest
      // follow a heavy tail whose mean is set so the overall
      // prefixes-per-AS matches the era (Table 1).
      int count = 1;
      if (!rng_.chance(p_.single_prefix_as_prob)) {
        const double spp = p_.single_prefix_as_prob;
        const double multi_mean = (p_.prefixes_per_as_mean - spp) / (1.0 - spp);
        const double roll = rng_.next_double();
        if (roll < 0.26) {
          count = 2;
        } else if (roll < 0.42) {
          count = 3;
        } else if (roll < 0.52) {
          count = 4;
        } else {
          // E[count | multi] = 0.26*2 + 0.16*3 + 0.10*4 + 0.48*E[tail].
          // The tail cap shrinks with scale so one outlier AS cannot
          // dominate a small synthetic Internet (the real cap is the
          // ~4K-prefix giants behind Table 1's largest atoms).
          const double tail_mean = std::max(5.0, (multi_mean - 1.4) / 0.48);
          const auto cap = static_cast<std::uint64_t>(
              std::max(64.0, 4092.0 * std::pow(p_.scale, 0.7)));
          count = 4 + static_cast<int>(rng_.heavy_tail(
                          std::max(1.0, tail_mean - 4.0), p_.prefix_alpha, cap));
        }
      }
      allocate_for(v, count);
    }
    assign_moas();
  }

  void allocate_for(NodeId v, int count) {
    auto& out = topo_.prefixes[v];
    out.reserve(count);
    int i = 0;
    while (i < count) {
      if (p_.family == net::Family::kIPv4) {
        // Aggregate + more-specifics pattern: a covering block whose /24s
        // are also announced (traffic engineering / deaggregation).
        if (i + 4 <= count && rng_.chance(p_.more_specific_prob * 0.5)) {
          const int blocks = 4;
          const std::uint32_t base = take_v4_slots(blocks, blocks);
          out.push_back(net::Prefix::v4(base << 8, 24 - 2));  // the aggregate
          ++i;
          for (int b = 0; b < blocks && i < count; ++b, ++i) {
            out.push_back(net::Prefix::v4((base + b) << 8, 24));
          }
          continue;
        }
        if (rng_.chance(p_.long_prefix_prob)) {
          const std::uint32_t base = take_v4_slots(1, 1);
          const int len = 25 + static_cast<int>(rng_.next_below(4));
          out.push_back(net::Prefix::v4(base << 8, len));
          ++i;
          continue;
        }
        const int len = rng_.chance(0.82)
                            ? 24
                            : 20 + static_cast<int>(rng_.next_below(4));
        const int blocks = 1 << (24 - len);
        const std::uint32_t base = take_v4_slots(blocks, blocks);
        out.push_back(net::Prefix::v4(base << 8, len));
        ++i;
      } else {
        if (rng_.chance(p_.long_prefix_prob)) {
          const std::uint64_t hi = take_v6_slots(48);
          const int len = 49 + static_cast<int>(rng_.next_below(8));
          out.push_back(net::Prefix::v6(hi, 0, len));
          ++i;
          continue;
        }
        const int len = rng_.chance(0.55)
                            ? 48
                            : 32 + static_cast<int>(rng_.next_below(4)) * 4;
        const std::uint64_t hi = take_v6_slots(len);
        out.push_back(net::Prefix::v6(hi, 0, len));
        ++i;
      }
    }
  }

  /// Claims `blocks` consecutive /24 slots aligned to `align` blocks;
  /// returns the first slot index (address = slot << 8).
  std::uint32_t take_v4_slots(int blocks, int align) {
    v4_slot_ = (v4_slot_ + align - 1) / align * align;
    const std::uint32_t s = v4_slot_;
    v4_slot_ += blocks;
    return s;
  }

  /// Claims address space for one prefix of length `len` (<= /48),
  /// aligned so distinct allocations never canonicalize to the same block.
  /// Slots are /48 units strided through 2001::/16-ish space.
  std::uint64_t take_v6_slots(int len) {
    const std::uint64_t blocks =
        len >= 48 ? 1 : 1ULL << (48 - len);  // /48 units needed
    v6_slot_ = (v6_slot_ + blocks - 1) / blocks * blocks;  // align
    const std::uint64_t s = v6_slot_;
    v6_slot_ += blocks;
    return 0x2001000000000000ULL + (s << 16);
  }

  net::Prefix next_fiti_prefix() {
    // /32 subnets of 240a:a000::/20, one per FITI AS (paper §5.1).
    const std::uint64_t hi =
        0x240aa00000000000ULL + (static_cast<std::uint64_t>(fiti_slot_++) << 32);
    return net::Prefix::v6(hi, 0, 32);
  }

  void assign_moas() {
    // A small share of prefixes gain a second origin (anycast or
    // misconfiguration): per-prefix probability, kept below the paper's
    // observed <5% bound (§2.4.3).
    const auto& g = topo_.graph;
    for (NodeId v = 0; v < g.size(); ++v) {
      for (const auto& prefix : topo_.prefixes[v]) {
        if (!rng_.chance(p_.moas_prob)) continue;
        const NodeId other = static_cast<NodeId>(rng_.next_below(g.size()));
        if (other == v || topo_.prefixes[other].empty()) continue;
        topo_.moas_extra.emplace_back(other, prefix);
      }
    }
  }

  // ---- vantage points -----------------------------------------------------

  void pick_vantage_points() {
    auto& names = topo_.collector_names;
    for (int i = 0; i < p_.n_collectors; ++i) {
      names.push_back(i % 2 == 0 ? "rrc" + two_digits(i / 2)
                                 : "route-views." + std::to_string(i / 2));
    }

    const auto& g = topo_.graph;
    std::vector<char> taken(g.size(), 0);
    int addpath_left = p_.n_addpath_broken;
    int dup_left = p_.n_dup_peers;
    bool private_left = p_.private_asn_peer;

    for (int i = 0; i < p_.n_peers; ++i) {
      NodeId node = kNoNode;
      for (int attempt = 0; attempt < 64 && node == kNoNode; ++attempt) {
        const double roll = rng_.next_double();
        NodeId cand;
        if (roll < 0.08) {
          cand = static_cast<NodeId>(rng_.next_below(p_.n_tier1));
        } else if (roll < 0.60) {
          cand = transits_[rng_.next_below(transits_.size())];
        } else {
          cand = static_cast<NodeId>(rng_.next_below(g.size()));
        }
        if (!taken[cand]) node = cand;
      }
      if (node == kNoNode) break;
      taken[node] = 1;

      VantagePoint vp;
      vp.node = node;
      vp.collector = static_cast<std::uint16_t>(rng_.next_below(names.size()));
      vp.share_fraction =
          rng_.chance(p_.full_feed_frac) ? 1.0 : 0.25 + 0.5 * rng_.next_double();
      // ADD-PATH breakage only occurs against RouteViews-style collectors
      // (odd indices), matching Appendix A8.3.1.
      if (addpath_left > 0 && vp.collector % 2 == 1 && vp.share_fraction == 1.0) {
        vp.addpath_broken = true;
        --addpath_left;
      } else if (private_left && vp.share_fraction == 1.0) {
        vp.private_asn_injector = true;
        private_left = false;
      } else if (dup_left > 0 && vp.share_fraction == 1.0) {
        vp.duplicate_emitter = true;
        --dup_left;
      }
      topo_.vantage_points.push_back(vp);
    }
  }

  static std::string two_digits(int v) {
    return (v < 10 ? "0" : "") + std::to_string(v);
  }

  const EraParams& p_;
  Rng rng_;
  Topology topo_;
  std::vector<NodeId> transits_;
  std::vector<NodeId> contents_;
  std::vector<NodeId> sibling_heads_;
  std::vector<NodeId> fiti_nodes_;
  net::Asn asn_counter_ = 100;
  std::uint32_t next_org_ = 1;
  std::uint32_t v4_slot_ = 1 << 16;  // start at 1.0.0.0
  std::uint64_t v6_slot_ = 0;
  std::uint32_t fiti_slot_ = 0;
};

}  // namespace

Topology generate_topology(const EraParams& params, std::uint64_t seed) {
  OBS_SPAN("topo.generate");
  Generator gen(params, seed);
  return gen.run();
}

}  // namespace bgpatoms::topo
