// Tests for the BGPStream-like record reader, in-memory and streaming.
#include <gtest/gtest.h>

#include <string>

#include "bgp/archive.h"
#include "routing/simulator.h"
#include "stream/file_reader.h"
#include "stream/reader.h"
#include "testutil.h"

namespace bgpatoms::stream {
namespace {

struct Fixture {
  bgp::Dataset ds;

  Fixture() {
    ds.family = net::Family::kIPv4;
    ds.collectors = {"rrc00", "route-views.2"};
    const auto path = ds.paths.intern(net::AsPath::sequence({64496, 15169}));
    const auto a = ds.prefixes.intern(*net::Prefix::parse("8.8.8.0/24"));
    const auto b = ds.prefixes.intern(*net::Prefix::parse("8.8.4.0/24"));
    const auto c = ds.prefixes.intern(*net::Prefix::parse("10.0.0.0/8"));

    bgp::Snapshot snap;
    snap.timestamp = 1000;
    bgp::PeerFeed f1;
    f1.peer = {64496, net::IpAddress::v4(1), 0};
    f1.records = {{a, path, 0, bgp::RecordStatus::kValid},
                  {c, path, 0, bgp::RecordStatus::kValid}};
    snap.peers.push_back(f1);
    bgp::PeerFeed f2;
    f2.peer = {64497, net::IpAddress::v4(2), 1};
    f2.records = {{b, path, 0, bgp::RecordStatus::kValid}};
    snap.peers.push_back(f2);
    ds.snapshots.push_back(std::move(snap));

    bgp::UpdateRecord u1;
    u1.timestamp = 1100;
    u1.collector = 0;
    u1.peer = 0;
    u1.path = path;
    u1.announced = {a, b};
    ds.updates.push_back(u1);
    bgp::UpdateRecord u2;
    u2.timestamp = 1200;
    u2.collector = 1;
    u2.peer = 1;
    u2.withdrawn = {c};
    ds.updates.push_back(u2);
  }
};

std::vector<Record> drain(RecordReader& reader) {
  std::vector<Record> out;
  while (auto rec = reader.next()) out.push_back(*rec);
  return out;
}

TEST(RecordReader, YieldsRibThenUpdates) {
  Fixture f;
  RecordReader reader(f.ds);
  const auto recs = drain(reader);
  ASSERT_EQ(recs.size(), 6u);  // 3 RIB rows + 2 announced + 1 withdrawn
  EXPECT_EQ(recs[0].type, RecordType::kRibEntry);
  EXPECT_EQ(recs[3].type, RecordType::kAnnouncement);
  EXPECT_EQ(recs[5].type, RecordType::kWithdrawal);
  EXPECT_EQ(reader.count(), 6u);
}

TEST(RecordReader, RibRecordContent) {
  Fixture f;
  RecordReader reader(f.ds);
  const auto rec = reader.next();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->collector, "rrc00");
  EXPECT_EQ(rec->peer_asn, 64496u);
  EXPECT_EQ(rec->prefix, *net::Prefix::parse("8.8.8.0/24"));
  ASSERT_NE(rec->path, nullptr);
  EXPECT_EQ(rec->path->to_string(), "64496 15169");
  EXPECT_EQ(rec->timestamp, 1000);
}

TEST(RecordReader, WithdrawalHasNoPath) {
  Fixture f;
  Filters filters;
  filters.include_rib = false;
  RecordReader reader(f.ds, filters);
  const auto recs = drain(reader);
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[2].type, RecordType::kWithdrawal);
  EXPECT_EQ(recs[2].path, nullptr);
}

TEST(RecordReader, CollectorFilter) {
  Fixture f;
  Filters filters;
  filters.collector = "rrc00";
  RecordReader reader(f.ds, filters);
  for (const auto& rec : drain(reader)) {
    EXPECT_EQ(rec.collector, "rrc00");
  }
}

TEST(RecordReader, PeerFilter) {
  Fixture f;
  Filters filters;
  filters.peer_asn = 64497;
  RecordReader reader(f.ds, filters);
  const auto recs = drain(reader);
  ASSERT_EQ(recs.size(), 2u);  // 1 RIB row + update u2
  for (const auto& rec : recs) EXPECT_EQ(rec.peer_asn, 64497u);
}

TEST(RecordReader, PrefixWithinFilter) {
  Fixture f;
  Filters filters;
  filters.prefix_within = *net::Prefix::parse("8.8.0.0/16");
  RecordReader reader(f.ds, filters);
  const auto recs = drain(reader);
  ASSERT_EQ(recs.size(), 4u);  // two RIB rows + two announcements
  for (const auto& rec : recs) {
    EXPECT_TRUE(filters.prefix_within->contains(rec.prefix));
  }
}

TEST(RecordReader, TimeWindowFilter) {
  Fixture f;
  Filters filters;
  filters.time_begin = 1150;
  RecordReader reader(f.ds, filters);
  const auto recs = drain(reader);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].timestamp, 1200);
}

TEST(RecordReader, UpdatesOnlyToggle) {
  Fixture f;
  Filters filters;
  filters.include_updates = false;
  RecordReader reader(f.ds, filters);
  for (const auto& rec : drain(reader)) {
    EXPECT_EQ(rec.type, RecordType::kRibEntry);
  }
}

TEST(RecordReader, EmptyDataset) {
  bgp::Dataset ds;
  RecordReader reader(ds);
  EXPECT_FALSE(reader.next().has_value());
}

TEST(RecordReader, WorksOverSimulatedDataset) {
  routing::Simulator sim(
      topo::generate_topology(topo::era_params_v4(2008.0, 0.01), 4));
  sim.capture();
  sim.emit_updates(routing::kHour);
  RecordReader reader(sim.dataset());
  std::size_t rib = 0, ann = 0, wd = 0;
  while (auto rec = reader.next()) {
    switch (rec->type) {
      case RecordType::kRibEntry:
        ++rib;
        break;
      case RecordType::kAnnouncement:
        ++ann;
        break;
      case RecordType::kWithdrawal:
        ++wd;
        break;
    }
  }
  EXPECT_EQ(rib, bgp::Dataset::record_count(sim.dataset().snapshots[0]));
  std::size_t expected_ann = 0, expected_wd = 0;
  for (const auto& u : sim.dataset().updates) {
    expected_ann += u.announced.size();
    expected_wd += u.withdrawn.size();
  }
  EXPECT_EQ(ann, expected_ann);
  EXPECT_EQ(wd, expected_wd);
}

// --- FileRecordReader: streaming must match the in-memory reader ------------

std::vector<Record> drain_file(FileRecordReader& reader) {
  std::vector<Record> out;
  while (auto rec = reader.next()) out.push_back(*rec);
  return out;
}

/// Same record stream, field by field. Record has views/pointers, so
/// compare the resolved values.
void expect_same_records(const std::vector<Record>& mem,
                         const std::vector<Record>& file) {
  ASSERT_EQ(mem.size(), file.size());
  for (std::size_t i = 0; i < mem.size(); ++i) {
    EXPECT_EQ(mem[i].type, file[i].type) << "record " << i;
    EXPECT_EQ(mem[i].timestamp, file[i].timestamp) << "record " << i;
    EXPECT_EQ(mem[i].collector, file[i].collector) << "record " << i;
    EXPECT_EQ(mem[i].peer_asn, file[i].peer_asn) << "record " << i;
    EXPECT_EQ(mem[i].peer_address, file[i].peer_address) << "record " << i;
    EXPECT_EQ(mem[i].prefix, file[i].prefix) << "record " << i;
    EXPECT_EQ(mem[i].path == nullptr, file[i].path == nullptr) << i;
    if (mem[i].path && file[i].path) {
      EXPECT_EQ(*mem[i].path, *file[i].path) << "record " << i;
    }
    EXPECT_TRUE(std::equal(mem[i].communities.begin(),
                           mem[i].communities.end(),
                           file[i].communities.begin(),
                           file[i].communities.end()))
        << "record " << i;
    EXPECT_EQ(mem[i].status, file[i].status) << "record " << i;
  }
}

TEST(FileRecordReader, MatchesInMemoryReader) {
  Fixture f;
  RecordReader mem_reader(f.ds);
  const auto mem = drain(mem_reader);
  const test::TempFile file("stream.bga");
  bgp::write_archive_file(f.ds, file.path());
  FileRecordReader reader(file.path());
  expect_same_records(mem, drain_file(reader));
  EXPECT_EQ(reader.count(), mem_reader.count());
}

TEST(FileRecordReader, FiltersMatchInMemoryReader) {
  Fixture f;
  const test::TempFile file("stream.bga");
  bgp::write_archive_file(f.ds, file.path());

  std::vector<Filters> cases;
  cases.push_back({});
  cases.emplace_back();
  cases.back().collector = "rrc00";
  cases.emplace_back();
  cases.back().peer_asn = 64497;
  cases.emplace_back();
  cases.back().prefix_within = *net::Prefix::parse("8.8.0.0/16");
  cases.emplace_back();
  cases.back().time_begin = 1100;
  cases.back().time_end = 1150;
  cases.emplace_back();
  cases.back().include_rib = false;
  cases.emplace_back();
  cases.back().include_updates = false;

  for (const auto& filters : cases) {
    RecordReader mem_reader(f.ds, filters);
    FileRecordReader file_reader(file.path(), filters);
    expect_same_records(drain(mem_reader), drain_file(file_reader));
  }
}

TEST(FileRecordReader, WorksOverSimulatedDataset) {
  routing::Simulator sim(
      topo::generate_topology(topo::era_params_v4(2005.0, 0.02), 7));
  sim.capture();
  sim.emit_updates(routing::kHour);
  const auto& ds = sim.dataset();

  RecordReader mem_reader(ds);
  const auto mem = drain(mem_reader);
  const test::TempFile file("stream.bga");
  bgp::write_archive_file(ds, file.path());
  FileRecordReader reader(file.path());
  expect_same_records(mem, drain_file(reader));
  EXPECT_LT(reader.archive().peak_buffer_bytes(),
            reader.archive().file_bytes());
}

TEST(FileRecordReader, MissingFileThrows) {
  EXPECT_THROW(FileRecordReader("/nonexistent/not.bga"), bgp::ArchiveError);
}

}  // namespace
}  // namespace bgpatoms::stream
