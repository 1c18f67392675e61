// SoA atom kernel vs an independent brute-force grouping, and
// AtomSignatureMatrix unit tests.
//
// compute_atoms() must reproduce brute_force_atoms() field-for-field —
// atom order, member order, per-VP paths, origin/MOAS flags, indexes and
// the method-(i) rewrite pool — for every snapshot shape and any thread
// count. The oracle shares no code with the kernel: no signature matrix,
// no row hashing, no sharded merge — just an ordered map from each
// prefix's per-VP (vp, path) signature to its members.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>

#include "core/atoms.h"
#include "testutil.h"

namespace bgpatoms::core {
namespace {

using test::DatasetBuilder;

/// Atoms straight from the definition (paper §2.1): prefixes with equal
/// (vp, path) lists over the selected VPs share an atom; a VP that does
/// not see a prefix is simply missing from its list.
AtomSet brute_force_atoms(const SanitizedSnapshot& snap,
                          const AtomOptions& options = {}) {
  std::vector<std::uint32_t> cols = options.vp_subset;
  if (cols.empty()) {
    for (std::uint32_t v = 0; v < snap.vps.size(); ++v) cols.push_back(v);
  }
  AtomSet out;
  out.snapshot = &snap;

  // Method (i): stripped paths interned VP-major, first encounter first.
  std::map<bgp::PathId, bgp::PathId> stripped;
  if (options.strip_prepends_before_grouping) {
    auto pool = std::make_shared<net::PathPool>();
    for (std::uint32_t col : cols) {
      for (const auto& [prefix, path] : snap.vps[col].routes) {
        if (!stripped.count(path)) {
          stripped[path] = pool->intern(snap.paths.get(path).stripped());
        }
      }
    }
    out.own_pool = pool;
  }

  using Signature = std::vector<std::pair<std::uint32_t, bgp::PathId>>;
  std::map<bgp::PrefixId, Signature> signature;
  for (std::uint32_t j = 0; j < cols.size(); ++j) {
    for (const auto& [prefix, path] : snap.vps[cols[j]].routes) {
      const bgp::PathId id = out.own_pool ? stripped.at(path) : path;
      signature[prefix].emplace_back(j, id);
    }
  }
  std::map<Signature, std::vector<std::size_t>> members;  // prefix indices
  for (std::size_t i = 0; i < snap.prefixes.size(); ++i) {
    members[signature[snap.prefixes[i]]].push_back(i);
  }
  std::vector<std::pair<std::vector<std::size_t>, Signature>> groups;
  for (const auto& [sig, idx] : members) groups.emplace_back(idx, sig);
  std::sort(groups.begin(), groups.end(), [](const auto& x, const auto& y) {
    return x.first.front() < y.first.front();
  });

  for (const auto& [idx, sig] : groups) {
    const auto a = static_cast<std::uint32_t>(out.atoms.size());
    Atom& atom = out.atoms.emplace_back();
    for (std::size_t i : idx) atom.prefixes.push_back(snap.prefixes[i]);
    atom.paths = sig;
    std::set<net::Asn> origins;
    for (const auto& [vp, path] : sig) {
      const auto origin = out.paths().get(path).origin();
      if (!origin || *origin == 0) continue;
      if (origins.empty()) atom.origin = *origin;
      origins.insert(*origin);
    }
    atom.moas = origins.size() > 1;
    for (bgp::PrefixId p : atom.prefixes) out.atom_of[p] = a;
    out.atoms_by_origin[atom.origin].push_back(a);
  }
  return out;
}

/// Full structural equality between two atom sets (operator== on Atom
/// covers prefixes/paths/origin/moas; the indexes are checked on top).
void expect_identical(const AtomSet& a, const AtomSet& b) {
  ASSERT_EQ(a.atoms.size(), b.atoms.size());
  EXPECT_EQ(a.atoms, b.atoms);
  EXPECT_EQ(a.atom_of, b.atom_of);
  EXPECT_EQ(a.atoms_by_origin, b.atoms_by_origin);
  ASSERT_EQ(a.own_pool != nullptr, b.own_pool != nullptr);
  if (a.own_pool) {
    // The method-(i) rewrite pools must intern in the same order.
    ASSERT_EQ(a.own_pool->size(), b.own_pool->size());
    for (std::size_t i = 0; i < a.own_pool->size(); ++i) {
      EXPECT_EQ(a.own_pool->get(static_cast<bgp::PathId>(i)),
                b.own_pool->get(static_cast<bgp::PathId>(i)));
    }
  }
}

/// Runs the kernel over `snap` at thread counts {1, 2, 8} and asserts
/// each run is identical to the brute-force oracle.
void expect_matches_oracle(const SanitizedSnapshot& snap,
                           bool strip_prepends = false) {
  AtomOptions base;
  base.strip_prepends_before_grouping = strip_prepends;
  const AtomSet oracle = brute_force_atoms(snap, base);
  for (int threads : {1, 2, 8}) {
    AtomOptions opt = base;
    opt.threads = threads;
    expect_identical(compute_atoms(snap, opt), oracle);
  }
}

TEST(AtomsKernel, EmptySnapshot) {
  DatasetBuilder b;
  b.peer(100);
  const auto snap = sanitize(b.dataset(), 0, test::lax_config());
  expect_matches_oracle(snap);
  EXPECT_TRUE(compute_atoms(snap).atoms.empty());
}

TEST(AtomsKernel, SinglePrefix) {
  DatasetBuilder b;
  b.peer(100).route("10.0.0.0/16", "100 1");
  b.peer(200).route("10.0.0.0/16", "200 1");
  const auto snap = sanitize(b.dataset(), 0, test::lax_config());
  expect_matches_oracle(snap);
  const auto atoms = compute_atoms(snap);
  ASSERT_EQ(atoms.atoms.size(), 1u);
  EXPECT_EQ(atoms.atoms[0].paths.size(), 2u);
}

TEST(AtomsKernel, AllIdenticalSignatures) {
  // Every prefix shares one signature: a single atom holding all of them.
  DatasetBuilder b;
  for (int vp = 0; vp < 3; ++vp) {
    b.peer(100 + vp);
    for (int i = 0; i < 50; ++i) {
      b.route("10." + std::to_string(i) + ".0.0/16",
              std::to_string(100 + vp) + " 7 1");
    }
  }
  const auto snap = sanitize(b.dataset(), 0, test::lax_config());
  expect_matches_oracle(snap);
  const auto atoms = compute_atoms(snap);
  ASSERT_EQ(atoms.atoms.size(), 1u);
  EXPECT_EQ(atoms.atoms[0].size(), 50u);
}

TEST(AtomsKernel, AbsencePatternsSplit) {
  // Visibility differences (the empty-path convention) must group the
  // same way through the dense matrix's absence sentinel.
  DatasetBuilder b;
  b.peer(100)
      .route("10.0.0.0/16", "100 1")
      .route("10.1.0.0/16", "100 1")
      .route("10.2.0.0/16", "100 1");
  b.peer(200).route("10.0.0.0/16", "200 1").route("10.2.0.0/16", "200 1");
  b.peer(300).route("10.2.0.0/16", "300 1");
  const auto snap = sanitize(b.dataset(), 0, test::lax_config());
  expect_matches_oracle(snap);
  EXPECT_EQ(compute_atoms(snap).atoms.size(), 3u);
}

TEST(AtomsKernel, MoasAtomKeepsTheFirstKnownOrigin) {
  // Three VPs disagree on the origin of the same two prefixes: one MOAS
  // atom, whose origin is the one seen at the first VP column.
  DatasetBuilder b;
  b.peer(100).route("10.0.0.0/16", "100 1").route("10.1.0.0/16", "100 1");
  b.peer(200).route("10.0.0.0/16", "200 2").route("10.1.0.0/16", "200 2");
  b.peer(300).route("10.0.0.0/16", "300 3").route("10.1.0.0/16", "300 3");
  const auto snap = sanitize(b.dataset(), 0, test::lax_config());
  expect_matches_oracle(snap);
  const auto atoms = compute_atoms(snap);
  ASSERT_EQ(atoms.atoms.size(), 1u);
  EXPECT_TRUE(atoms.atoms[0].moas);
  EXPECT_EQ(atoms.atoms[0].origin, 1u);
  EXPECT_EQ(atoms.atoms_by_origin.count(1), 1u);
}

TEST(AtomsKernel, StripPrependsBeforeGrouping) {
  DatasetBuilder b;
  b.peer(100)
      .route("10.0.0.0/16", "100 1")
      .route("10.1.0.0/16", "100 1 1")
      .route("10.2.0.0/16", "100 2 2 1")
      .route("10.3.0.0/16", "100 2 1");
  const auto snap = sanitize(b.dataset(), 0, test::lax_config());
  expect_matches_oracle(snap, /*strip_prepends=*/true);
  AtomOptions options;
  options.strip_prepends_before_grouping = true;
  const auto atoms = compute_atoms(snap, options);
  EXPECT_EQ(atoms.atoms.size(), 2u);  // {10.0, 10.1} and {10.2, 10.3}
  ASSERT_TRUE(atoms.own_pool != nullptr);
}

TEST(AtomsKernel, LargeSnapshotAboveParallelGate) {
  // Enough prefixes to cross the 4096-prefix parallel gate so the
  // kernel's sharded paths actually run multi-threaded.
  DatasetBuilder b;
  constexpr int kPrefixes = 5000;
  for (int vp = 0; vp < 3; ++vp) {
    b.peer(100 + vp);
    for (int i = 0; i < kPrefixes; ++i) {
      // 23 signature classes, plus per-VP visibility gaps every 11th
      // prefix, and prepending on one class.
      if (vp == 1 && i % 11 == 0) continue;
      std::string path = std::to_string(100 + vp) + " " +
                         std::to_string(7 + i % 23) + " 1";
      if (i % 23 == 3) path += " 1";
      b.route("10." + std::to_string(i / 250) + "." +
                  std::to_string(i % 250) + ".0/24",
              path);
    }
  }
  const auto snap = sanitize(b.dataset(), 0, test::lax_config());
  ASSERT_GE(snap.prefixes.size(), 4096u);
  expect_matches_oracle(snap);
  expect_matches_oracle(snap, /*strip_prepends=*/true);
}

// ------------------------------------------------------- masked grouping

/// Two datasets sharing prefix/path intern order for the selected peers:
/// `full` declares the selected peers 100 and 300 first (columns 0 and
/// 1), then unselected peers 200 and 400; `dropped` declares only 100
/// and 300 with identical routes. Interning the selected routes first
/// makes the retained prefix ids, the sanitized path ids, and therefore
/// the whole masked computation byte-comparable across the two datasets.
/// (Non-contiguous subsets are pinned against the whole matrix in
/// MaskedMatrixHoldsSelectedColumnsOnly, where one pool serves both.)
void build_masked_pair(DatasetBuilder& full, DatasetBuilder& dropped) {
  const auto selected_routes = [](DatasetBuilder& b) {
    b.peer(100);
    for (int i = 0; i < 12; ++i) {
      b.route("10.0." + std::to_string(i) + ".0/24",
              "100 " + std::to_string(7 + i % 3) + " 1");
    }
    b.peer(300);
    for (int i = 0; i < 12; ++i) {
      if (i % 5 == 0) continue;  // visibility gaps at one selected VP
      b.route("10.0." + std::to_string(i) + ".0/24",
              "300 " + std::to_string(4 + i % 4) + " 1");
    }
  };
  selected_routes(full);
  // Unselected peers: distinct paths, partial tables, one prepended
  // route — none of it may leak into the masked grouping.
  full.peer(200);
  for (int i = 0; i < 12; i += 2) {
    full.route("10.0." + std::to_string(i) + ".0/24",
               "200 " + std::to_string(9 + i % 5) + " 1");
  }
  full.peer(400).route("10.0.3.0/24", "400 400 1");

  selected_routes(dropped);
}

TEST(AtomsKernel, MaskedSubsetEqualsPhysicallyDroppedColumns) {
  DatasetBuilder full_b, dropped_b;
  build_masked_pair(full_b, dropped_b);
  const auto full = sanitize(full_b.dataset(), 0, test::lax_config());
  const auto dropped = sanitize(dropped_b.dataset(), 0, test::lax_config());
  ASSERT_EQ(full.vps.size(), 4u);
  ASSERT_EQ(dropped.vps.size(), 2u);
  ASSERT_EQ(full.prefixes, dropped.prefixes);

  // The selected peers sit at columns 0 and 1 of the full snapshot.
  ASSERT_EQ(full.vps[0].peer.asn, 100u);
  ASSERT_EQ(full.vps[1].peer.asn, 300u);

  for (const bool strip : {false, true}) {
    for (const int threads : {1, 2, 8}) {
      AtomOptions masked;
      masked.vp_subset = {0, 1};
      masked.strip_prepends_before_grouping = strip;
      masked.threads = threads;
      AtomOptions plain;
      plain.strip_prepends_before_grouping = strip;
      plain.threads = threads;

      // The masked kernel against the physically dropped snapshot, and
      // against the brute-force oracle.
      expect_identical(compute_atoms(full, masked),
                       compute_atoms(dropped, plain));
      expect_identical(compute_atoms(full, masked),
                       brute_force_atoms(full, masked));
    }
  }
}

TEST(AtomsKernel, MaskedMatrixHoldsSelectedColumnsOnly) {
  DatasetBuilder full_b, dropped_b;
  build_masked_pair(full_b, dropped_b);
  const auto full = sanitize(full_b.dataset(), 0, test::lax_config());

  AtomOptions masked;
  masked.vp_subset = {0, 2};
  const auto m = AtomSignatureMatrix::build(full, masked);
  const auto whole = AtomSignatureMatrix::build(full);
  ASSERT_EQ(m.num_vps(), 2u);
  ASSERT_EQ(m.num_prefixes(), whole.num_prefixes());
  for (std::size_t i = 0; i < m.num_prefixes(); ++i) {
    EXPECT_EQ(m.cell(i, 0), whole.cell(i, 0));
    EXPECT_EQ(m.cell(i, 1), whole.cell(i, 2));
  }
}

TEST(AtomsKernel, InvisiblePrefixesCollapseIntoOneAbsentAtom) {
  // A prefix seen only by unselected peers stays in the universe and
  // lands in the all-absent atom alongside every other invisible prefix.
  DatasetBuilder b;
  b.peer(100).route("10.0.0.0/16", "100 1");
  b.peer(200)
      .route("10.1.0.0/16", "200 1")
      .route("10.2.0.0/16", "200 2");
  const auto snap = sanitize(b.dataset(), 0, test::lax_config());
  ASSERT_EQ(snap.prefixes.size(), 3u);

  AtomOptions masked;
  masked.vp_subset = {0};
  const auto atoms = compute_atoms(snap, masked);
  ASSERT_EQ(atoms.atoms.size(), 2u);
  // One atom carries 10.0/16 at the selected VP; the other holds both
  // invisible prefixes and no paths at all.
  const auto& visible =
      atoms.atoms[0].paths.empty() ? atoms.atoms[1] : atoms.atoms[0];
  const auto& absent =
      atoms.atoms[0].paths.empty() ? atoms.atoms[0] : atoms.atoms[1];
  EXPECT_EQ(visible.prefixes.size(), 1u);
  ASSERT_EQ(visible.paths.size(), 1u);
  EXPECT_EQ(visible.paths[0].first, 0u);  // subset-relative vp id
  EXPECT_EQ(absent.prefixes.size(), 2u);
  EXPECT_TRUE(absent.paths.empty());
}

TEST(AtomsKernel, MalformedVpSubsetThrows) {
  DatasetBuilder b;
  b.peer(100).route("10.0.0.0/16", "100 1");
  b.peer(200).route("10.0.0.0/16", "200 1");
  const auto snap = sanitize(b.dataset(), 0, test::lax_config());

  for (const std::vector<std::uint32_t>& bad :
       {std::vector<std::uint32_t>{2}, std::vector<std::uint32_t>{1, 0},
        std::vector<std::uint32_t>{0, 0}}) {
    AtomOptions opt;
    opt.vp_subset = bad;
    EXPECT_THROW(compute_atoms(snap, opt), std::invalid_argument);
    EXPECT_THROW(AtomSignatureMatrix::build(snap, opt), std::invalid_argument);
  }
}

// ------------------------------------------------------ signature matrix

TEST(AtomSignatureMatrixTest, DimensionsAndCells) {
  DatasetBuilder b;
  b.peer(100).route("10.0.0.0/16", "100 1").route("10.1.0.0/16", "100 2 1");
  b.peer(200).route("10.0.0.0/16", "200 1");
  const auto snap = sanitize(b.dataset(), 0, test::lax_config());
  const auto m = AtomSignatureMatrix::build(snap);

  ASSERT_EQ(m.num_prefixes(), 2u);
  ASSERT_EQ(m.num_vps(), 2u);
  EXPECT_EQ(m.stripped_pool(), nullptr);

  // Row i follows snapshot.prefixes order; cells follow VP order.
  for (std::size_t p = 0; p < m.num_prefixes(); ++p) {
    const auto row = m.row(p);
    ASSERT_EQ(row.size(), m.num_vps());
    for (std::size_t vp = 0; vp < m.num_vps(); ++vp) {
      const bgp::PathId expected =
          snap.vps[vp].path_for(snap.prefixes[p]);
      if (expected == net::PathPool::kEmptyPathId &&
          row[vp] == AtomSignatureMatrix::kAbsent) {
        continue;  // absent route: sentinel cell
      }
      ASSERT_NE(row[vp], AtomSignatureMatrix::kAbsent);
      EXPECT_EQ(AtomSignatureMatrix::path_of(row[vp]), expected);
      EXPECT_EQ(m.cell(p, vp), row[vp]);
    }
  }
  // 10.1/16 is absent at VP 1 — the one sentinel cell in this snapshot.
  EXPECT_EQ(m.cell(1, 1), AtomSignatureMatrix::kAbsent);
}

TEST(AtomSignatureMatrixTest, StripPrependsOwnsRewritePool) {
  DatasetBuilder b;
  b.peer(100).route("10.0.0.0/16", "100 1").route("10.1.0.0/16", "100 1 1");
  const auto snap = sanitize(b.dataset(), 0, test::lax_config());
  AtomOptions options;
  options.strip_prepends_before_grouping = true;
  const auto m = AtomSignatureMatrix::build(snap, options);
  ASSERT_TRUE(m.stripped_pool() != nullptr);
  // Both routes collapse to the same stripped path: identical cells.
  EXPECT_EQ(m.cell(0, 0), m.cell(1, 0));
  const auto id = AtomSignatureMatrix::path_of(m.cell(0, 0));
  EXPECT_EQ(m.stripped_pool()->get(id).to_string(), "100 1");
}

// ------------------------------------------------------- packing limits

TEST(AtomsKernel, PackingLimitGuardThrows) {
  // The VP-id / cell encodings are 32-bit; the guard must be a thrown
  // error, not an assert that compiles out under NDEBUG. Snapshots of
  // that size cannot be materialized in a test, so the guard is exposed
  // and exercised directly.
  EXPECT_NO_THROW(check_packing_limits(0, 0));
  EXPECT_NO_THROW(check_packing_limits(UINT32_MAX, UINT32_MAX));
  if constexpr (sizeof(std::size_t) > 4) {
    const auto over = static_cast<std::size_t>(UINT32_MAX) + 1;
    EXPECT_THROW(check_packing_limits(over, 0), std::runtime_error);
    EXPECT_THROW(check_packing_limits(0, over), std::runtime_error);
  }
}

}  // namespace
}  // namespace bgpatoms::core
