// Shared test helpers: a fluent builder for small hand-crafted datasets
// where every peer's table is spelled out, and per-test scratch files.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bgp/dataset.h"
#include "core/atoms.h"
#include "core/sanitize.h"

namespace bgpatoms::test {

class DatasetBuilder {
 public:
  explicit DatasetBuilder(net::Family family = net::Family::kIPv4) {
    ds_.family = family;
  }

  DatasetBuilder& collector(std::string name) {
    ds_.collectors.push_back(std::move(name));
    return *this;
  }

  /// Starts a new peer feed in the current snapshot.
  DatasetBuilder& peer(net::Asn asn, std::uint16_t collector = 0) {
    ensure_snapshot();
    bgp::PeerFeed feed;
    feed.peer.asn = asn;
    // Address derived from (asn, collector) so peer identities stay
    // stable across snapshots of one dataset.
    const std::uint32_t suffix = asn * 8 + collector + 1;
    feed.peer.address = ds_.family == net::Family::kIPv4
                            ? net::IpAddress::v4(0x0A000000u + suffix)
                            : net::IpAddress::v6(0x20010db8'0000'0000ULL,
                                                 suffix);
    feed.peer.collector = collector;
    ds_.snapshots.back().peers.push_back(std::move(feed));
    return *this;
  }

  /// Adds a route to the current peer: textual prefix + textual AS path.
  DatasetBuilder& route(const std::string& prefix, const std::string& path,
                        bgp::RecordStatus status = bgp::RecordStatus::kValid) {
    auto& feed = ds_.snapshots.back().peers.back();
    bgp::RibRecord rec;
    rec.prefix = ds_.prefixes.intern(*net::Prefix::parse(prefix));
    rec.path = ds_.paths.intern(*net::AsPath::parse(path));
    rec.status = status;
    feed.records.push_back(rec);
    return *this;
  }

  /// Starts a new snapshot (first one is implicit).
  DatasetBuilder& snapshot(bgp::Timestamp t) {
    ds_.snapshots.push_back(bgp::Snapshot{t, {}});
    return *this;
  }

  /// Appends an update record (peer index refers to snapshot 0's order).
  DatasetBuilder& update(bgp::Timestamp t, bgp::PeerIndex peer,
                         const std::string& path,
                         std::vector<std::string> announced,
                         std::vector<std::string> withdrawn = {}) {
    bgp::UpdateRecord u;
    u.timestamp = t;
    u.peer = peer;
    u.collector = 0;
    u.path = path.empty() ? 0 : ds_.paths.intern(*net::AsPath::parse(path));
    for (const auto& p : announced) {
      u.announced.push_back(ds_.prefixes.intern(*net::Prefix::parse(p)));
    }
    for (const auto& p : withdrawn) {
      u.withdrawn.push_back(ds_.prefixes.intern(*net::Prefix::parse(p)));
    }
    ds_.updates.push_back(std::move(u));
    return *this;
  }

  bgp::Dataset& dataset() { return ds_; }

 private:
  void ensure_snapshot() {
    if (ds_.snapshots.empty()) ds_.snapshots.push_back(bgp::Snapshot{0, {}});
    if (ds_.collectors.empty()) ds_.collectors.push_back("rrc00");
  }

  bgp::Dataset ds_;
};

/// A scratch file path unique to the running test (suite name, test name
/// and pid), removed on destruction. gtest_discover_tests runs every case
/// as its own ctest process, concurrently under `ctest -j`, so a name
/// shared by two cases would let one overwrite or delete the other's file
/// mid-read. `tag` tells apart several files of one test.
class TempFile {
 public:
  explicit TempFile(const std::string& tag) {
    const auto* info = testing::UnitTest::GetInstance()->current_test_info();
    std::string test = info ? std::string(info->test_suite_name()) + "." +
                                  info->name()
                            : "global";
    std::replace(test.begin(), test.end(), '/', '_');  // parameterized
    path_ = testing::TempDir() + test + "." + std::to_string(::getpid()) +
            "." + tag;
  }
  ~TempFile() { std::remove(path_.c_str()); }
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Sanitize with thresholds relaxed so tiny hand-built tables survive.
inline core::SanitizeConfig lax_config() {
  core::SanitizeConfig config;
  config.min_collectors = 1;
  config.min_peer_ases = 1;
  config.full_feed_only = false;
  config.remove_abnormal_peers = false;
  return config;
}

/// Lax thresholds but with abnormal-peer detection still active.
inline core::SanitizeConfig lax_config_with_abnormal() {
  core::SanitizeConfig config = lax_config();
  config.remove_abnormal_peers = true;
  return config;
}

}  // namespace bgpatoms::test
