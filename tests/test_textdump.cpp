// Tests for the one text renderer, bgp::dump_text, and the bga_dump tool
// that drives it.
//
// Exact lines on a hand-built fixture pin the format; a brute-force
// oracle that filters the Dataset directly (sharing no code with
// dump_text) pins every filter through both backends, the in-memory
// DatasetView and an ArchiveView streaming the same data from a BGA
// file. The BgaDump cases run the bga_dump binary itself: its summary,
// its --text output and its exit codes on bad input.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bgp/archive.h"
#include "bgp/archive_view.h"
#include "bgp/textdump.h"
#include "routing/simulator.h"
#include "testutil.h"

namespace bgpatoms::bgp {
namespace {

using test::TempFile;

/// Two collectors, two peers, one announcement of two prefixes and one
/// withdrawal.
Dataset fixture() {
  Dataset ds;
  ds.family = net::Family::kIPv4;
  ds.collectors = {"rrc00", "route-views.2"};
  const auto path = ds.paths.intern(net::AsPath::sequence({64496, 15169}));
  const auto a = ds.prefixes.intern(*net::Prefix::parse("8.8.8.0/24"));
  const auto b = ds.prefixes.intern(*net::Prefix::parse("8.8.4.0/24"));
  const auto c = ds.prefixes.intern(*net::Prefix::parse("10.0.0.0/8"));

  Snapshot snap;
  snap.timestamp = 1000;
  PeerFeed f1;
  f1.peer = {64496, net::IpAddress::v4(1), 0};
  f1.records = {{a, path, 0, RecordStatus::kValid},
                {c, path, 0, RecordStatus::kValid}};
  snap.peers.push_back(f1);
  PeerFeed f2;
  f2.peer = {64497, net::IpAddress::v4(2), 1};
  f2.records = {{b, path, 0, RecordStatus::kValid}};
  snap.peers.push_back(f2);
  ds.snapshots.push_back(std::move(snap));

  UpdateRecord u1;
  u1.timestamp = 1100;
  u1.collector = 0;
  u1.peer = 0;
  u1.path = path;
  u1.announced = {a, b};
  ds.updates.push_back(u1);
  UpdateRecord u2;
  u2.timestamp = 1200;
  u2.collector = 1;
  u2.peer = 1;
  u2.withdrawn = {c};
  ds.updates.push_back(u2);
  return ds;
}

/// A small simulated campaign: one RIB snapshot plus an hour of updates.
const Dataset& campaign() {
  static const Dataset ds = [] {
    routing::Simulator sim(
        topo::generate_topology(topo::era_params_v4(2005.0, 0.02), 7));
    sim.capture();
    sim.emit_updates(routing::kHour);
    return std::move(sim.dataset());
  }();
  return ds;
}

std::string render(SnapshotView& snapshots, UpdateStreamView& updates,
                   const TextFilter& filter) {
  std::ostringstream out;
  dump_text(snapshots, updates, filter, out);
  return out.str();
}

std::string render(const Dataset& ds, const TextFilter& filter = {}) {
  DatasetView view(ds);
  return render(view, view, filter);
}

std::string render_file(const std::string& path,
                        const TextFilter& filter = {}) {
  ArchiveView view(path);
  return render(view, view, filter);
}

// --- brute-force oracle -------------------------------------------------------

bool oracle_keeps(const TextFilter& f, Timestamp t, const std::string& coll,
                  net::Asn peer, const net::Prefix& prefix) {
  if (t < f.time_begin || t >= f.time_end) return false;
  if (f.collector.has_value() && coll != *f.collector) return false;
  if (f.peer_asn.has_value() && peer != *f.peer_asn) return false;
  if (f.prefix_within.has_value() && !f.prefix_within->contains(prefix)) {
    return false;
  }
  return true;
}

std::string oracle_line(Timestamp t, const std::string& kind,
                        const std::string& coll, const PeerIdentity& peer,
                        const net::Prefix& prefix, const std::string& path) {
  return std::to_string(t) + "|" + kind + "|" + coll + "|" +
         peer.address.to_string() + "|" + std::to_string(peer.asn) + "|" +
         prefix.to_string() + "|" + path + "\n";
}

/// The expected dump, straight off the Dataset's vectors.
std::string oracle_text(const Dataset& ds, const TextFilter& f) {
  std::string out;
  if (f.include_rib) {
    for (const Snapshot& snap : ds.snapshots) {
      for (const PeerFeed& feed : snap.peers) {
        const std::string& coll = ds.collectors.at(feed.peer.collector);
        for (const RibRecord& rec : feed.records) {
          const net::Prefix prefix = ds.prefixes.get(rec.prefix);
          if (oracle_keeps(f, snap.timestamp, coll, feed.peer.asn, prefix)) {
            out += oracle_line(snap.timestamp, "B", coll, feed.peer, prefix,
                               ds.paths.get(rec.path).to_string());
          }
        }
      }
    }
  }
  if (f.include_updates) {
    for (const UpdateRecord& u : ds.updates) {
      PeerIdentity peer;
      if (!ds.snapshots.empty() && u.peer < ds.snapshots[0].peers.size()) {
        peer = ds.snapshots[0].peers[u.peer].peer;
      }
      const std::string& coll = ds.collectors.at(u.collector);
      for (const PrefixId id : u.announced) {
        const net::Prefix prefix = ds.prefixes.get(id);
        if (oracle_keeps(f, u.timestamp, coll, peer.asn, prefix)) {
          out += oracle_line(u.timestamp, "A", coll, peer, prefix,
                             ds.paths.get(u.path).to_string());
        }
      }
      for (const PrefixId id : u.withdrawn) {
        const net::Prefix prefix = ds.prefixes.get(id);
        if (oracle_keeps(f, u.timestamp, coll, peer.asn, prefix)) {
          out += oracle_line(u.timestamp, "W", coll, peer, prefix, "");
        }
      }
    }
  }
  return out;
}

/// The empty filter plus one case per field.
std::vector<TextFilter> filter_cases(const std::string& collector,
                                     net::Asn peer, const net::Prefix& within,
                                     Timestamp begin, Timestamp end) {
  std::vector<TextFilter> cases(8);
  cases[1].collector = collector;
  cases[2].peer_asn = peer;
  cases[3].prefix_within = within;
  cases[4].time_begin = begin;
  cases[4].time_end = end;
  cases[5].time_begin = begin;
  cases[6].include_rib = false;
  cases[7].include_updates = false;
  return cases;
}

/// Every case renders the oracle's bytes through both backends.
void expect_backends_match_oracle(const Dataset& ds,
                                  const std::vector<TextFilter>& cases) {
  const TempFile file("dump.bga");
  write_archive_file(ds, file.path());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const std::string want = oracle_text(ds, cases[i]);
    EXPECT_EQ(render(ds, cases[i]), want) << "filter case " << i;
    EXPECT_EQ(render_file(file.path(), cases[i]), want) << "filter case " << i;
    // Chunk boundaries inside the update stream change nothing.
    DatasetView chunked(ds);
    chunked.set_chunk_size(3);
    EXPECT_EQ(render(chunked, chunked, cases[i]), want) << "filter case " << i;
  }
}

// --- exact lines ----------------------------------------------------------------

TEST(TextDump, SnapshotLines) {
  TextFilter rib_only;
  rib_only.include_updates = false;
  EXPECT_EQ(render(fixture(), rib_only),
            "1000|B|rrc00|0.0.0.1|64496|8.8.8.0/24|64496 15169\n"
            "1000|B|rrc00|0.0.0.1|64496|10.0.0.0/8|64496 15169\n"
            "1000|B|route-views.2|0.0.0.2|64497|8.8.4.0/24|64496 15169\n");
}

TEST(TextDump, UpdateLines) {
  // Update peers resolve through the first snapshot's peer identities,
  // even though the snapshot itself is not printed.
  TextFilter updates_only;
  updates_only.include_rib = false;
  EXPECT_EQ(render(fixture(), updates_only),
            "1100|A|rrc00|0.0.0.1|64496|8.8.8.0/24|64496 15169\n"
            "1100|A|rrc00|0.0.0.1|64496|8.8.4.0/24|64496 15169\n"
            "1200|W|route-views.2|0.0.0.2|64497|10.0.0.0/8|\n");
}

TEST(TextDump, RibRowsThenUpdatesFromTheFile) {
  const Dataset ds = fixture();
  const TempFile file("fixture.bga");
  write_archive_file(ds, file.path());
  EXPECT_EQ(render_file(file.path()),
            "1000|B|rrc00|0.0.0.1|64496|8.8.8.0/24|64496 15169\n"
            "1000|B|rrc00|0.0.0.1|64496|10.0.0.0/8|64496 15169\n"
            "1000|B|route-views.2|0.0.0.2|64497|8.8.4.0/24|64496 15169\n"
            "1100|A|rrc00|0.0.0.1|64496|8.8.8.0/24|64496 15169\n"
            "1100|A|rrc00|0.0.0.1|64496|8.8.4.0/24|64496 15169\n"
            "1200|W|route-views.2|0.0.0.2|64497|10.0.0.0/8|\n");
}

TEST(TextDump, UnknownUpdatePeerResolvesToAsZero) {
  Dataset ds = fixture();
  ds.updates[1].peer = 7;  // the first snapshot has two peers
  TextFilter updates_only;
  updates_only.include_rib = false;
  const std::string out = render(ds, updates_only);
  EXPECT_NE(out.find("1200|W|route-views.2|" +
                     net::IpAddress().to_string() + "|0|10.0.0.0/8|\n"),
            std::string::npos)
      << out;
  EXPECT_EQ(out, oracle_text(ds, updates_only));
}

TEST(TextDump, EmptyDatasetPrintsNothing) {
  const Dataset ds;
  EXPECT_EQ(render(ds), "");
}

// --- the half-open time window ----------------------------------------------

TEST(TextDump, RibSnapshotAtTimeBeginKeptAtTimeEndDropped) {
  const Dataset ds = fixture();
  const TempFile file("window.bga");
  write_archive_file(ds, file.path());
  TextFilter at_begin;  // snapshot t=1000 == time_begin
  at_begin.include_updates = false;
  at_begin.time_begin = 1000;
  at_begin.time_end = 1001;
  TextFilter at_end;  // snapshot t=1000 == time_end
  at_end.include_updates = false;
  at_end.time_begin = 999;
  at_end.time_end = 1000;
  TextFilter rib_only;
  rib_only.include_updates = false;
  const std::string want = oracle_text(ds, rib_only);
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(render(ds, at_begin), want);
  EXPECT_EQ(render_file(file.path(), at_begin), want);
  EXPECT_EQ(render(ds, at_end), "");
  EXPECT_EQ(render_file(file.path(), at_end), "");
}

TEST(TextDump, UpdateAtTimeBeginKeptAtTimeEndDropped) {
  const Dataset ds = fixture();
  const TempFile file("window.bga");
  write_archive_file(ds, file.path());
  // u1 at t=1100 sits on time_begin, u2 at t=1200 on time_end.
  TextFilter window;
  window.include_rib = false;
  window.time_begin = 1100;
  window.time_end = 1200;
  const std::string want =
      "1100|A|rrc00|0.0.0.1|64496|8.8.8.0/24|64496 15169\n"
      "1100|A|rrc00|0.0.0.1|64496|8.8.4.0/24|64496 15169\n";
  EXPECT_EQ(render(ds, window), want);
  EXPECT_EQ(render_file(file.path(), window), want);
}

// --- the oracle over every filter, both backends ------------------------------

TEST(TextDump, FiltersMatchOracleOnFixture) {
  const Dataset ds = fixture();
  expect_backends_match_oracle(
      ds, filter_cases("rrc00", 64497, *net::Prefix::parse("8.8.0.0/16"),
                       1100, 1150));
}

TEST(TextDump, FiltersMatchOracleOnSimulatedCampaign) {
  const Dataset& ds = campaign();
  ASSERT_EQ(ds.snapshots.size(), 1u);
  ASSERT_GE(ds.updates.size(), 3u);
  ASSERT_GE(ds.snapshots[0].peers.size(), 2u);
  // The /8 around the first RIB row's prefix.
  const net::Prefix first =
      ds.prefixes.get(ds.snapshots[0].peers[0].records.at(0).prefix);
  const std::string text = first.to_string();
  const net::Prefix within =
      *net::Prefix::parse(text.substr(0, text.find('.')) + ".0.0.0/8");
  // Window edges on update timestamps, so both boundaries are hit.
  const std::size_t n = ds.updates.size();
  const auto cases = filter_cases(
      ds.collectors.back(), ds.snapshots[0].peers[1].peer.asn, within,
      ds.updates[n / 3].timestamp, ds.updates[2 * n / 3].timestamp);
  for (const auto& f : cases) {
    EXPECT_FALSE(oracle_text(ds, f).empty()) << "a filter case matches nothing";
  }
  expect_backends_match_oracle(ds, cases);
}

TEST(TextDump, MissingFileThrows) {
  EXPECT_THROW(ArchiveView("/nonexistent/not.bga"), ArchiveError);
}

// --- the bga_dump binary --------------------------------------------------------

struct DumpRun {
  int exit_code = -1;
  std::string out;
  std::string err;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Runs bga_dump with `args` (shell words; no quoting needed for the
/// paths these tests use).
DumpRun run_bga_dump(const std::string& args) {
  const TempFile out("stdout");
  const TempFile err("stderr");
  const std::string cmd = std::string(BGPATOMS_BGA_DUMP) + " " + args + " >" +
                          out.path() + " 2>" + err.path();
  const int status = std::system(cmd.c_str());
  DumpRun run;
  if (status != -1 && WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  run.out = slurp(out.path());
  run.err = slurp(err.path());
  return run;
}

TEST(BgaDump, SummaryDescribesTheArchive) {
  const TempFile file("fixture.bga");
  write_archive_file(fixture(), file.path());
  const DumpRun run = run_bga_dump(file.path());
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_EQ(run.out,
            "format:      BGA v2\n"
            "family:      IPv4\n"
            "collectors:  2 (rrc00, route-views.2)\n"
            "prefixes:    3 distinct\n"
            // The reserved empty path (id 0) plus the fixture's one.
            "paths:       2 distinct\n"
            "snapshots:   1\n"
            "  t=1000: 2 peers, 3 records\n"
            "updates:     2 records (2 announcements, 1 withdrawals)\n");
}

TEST(BgaDump, TextWithFiltersMatchesDumpText) {
  const Dataset& ds = campaign();
  const TempFile file("campaign.bga");
  write_archive_file(ds, file.path());
  const std::string& collector = ds.collectors.front();
  const Timestamp begin = ds.updates[ds.updates.size() / 2].timestamp;
  TextFilter filter;
  filter.collector = collector;
  filter.prefix_within = *net::Prefix::parse("0.0.0.0/1");
  filter.time_begin = begin;
  const DumpRun run =
      run_bga_dump(file.path() + " --text --collector " + collector +
                   " --prefix 0.0.0.0/1 --time-begin " + std::to_string(begin));
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_FALSE(run.out.empty());
  EXPECT_EQ(run.out, render(ds, filter));
}

TEST(BgaDump, MissingArchiveExitsOne) {
  const DumpRun run = run_bga_dump("/nonexistent/not.bga --text");
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_EQ(run.err.rfind("error:", 0), 0u) << run.err;
}

TEST(BgaDump, TruncatedArchiveExitsOne) {
  const TempFile file("truncated.bga");
  write_archive_file(campaign(), file.path());
  std::filesystem::resize_file(file.path(),
                               std::filesystem::file_size(file.path()) / 2);
  for (const char* mode : {"", " --text", " --peers"}) {
    const DumpRun run = run_bga_dump(file.path() + mode);
    EXPECT_EQ(run.exit_code, 1) << "mode '" << mode << "'";
    EXPECT_NE(run.err.find("error:"), std::string::npos)
        << "mode '" << mode << "': " << run.err;
  }
}

TEST(BgaDump, MalformedPrefixExitsTwo) {
  const TempFile file("fixture.bga");
  write_archive_file(fixture(), file.path());
  const DumpRun run = run_bga_dump(file.path() + " --text --prefix 10.0.0.0/33");
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_NE(run.err.find("--prefix expects"), std::string::npos) << run.err;
  EXPECT_EQ(run.out, "");
}

TEST(BgaDump, UnknownFlagExitsTwo) {
  const TempFile file("fixture.bga");
  write_archive_file(fixture(), file.path());
  // A typo of --peer-asn must not dump every record unfiltered.
  const DumpRun run = run_bga_dump(file.path() + " --text --peer-as 1");
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_NE(run.err.find("unknown option --peer-as"), std::string::npos)
      << run.err;
  EXPECT_EQ(run.out, "");
}

}  // namespace
}  // namespace bgpatoms::bgp
