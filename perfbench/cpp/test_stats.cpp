// Unit tests for the benchmark's percentile, median, reference scaling and
// span self-time arithmetic.
#include <gtest/gtest.h>

#include "reference.h"
#include "stats.h"
#include "tracer.h"

namespace perfbench {
namespace {

TEST(Percentile, NearestRankOverUnsortedSample) {
  std::vector<int> v = {50, 10, 40, 20, 30};
  EXPECT_EQ(percentile(v, 0.0), 10);
  EXPECT_EQ(percentile(v, 0.5), 30);
  EXPECT_EQ(percentile(v, 1.0), 50);
  // rank round(0.99 * 4) = 4: the maximum of five samples.
  EXPECT_EQ(percentile(v, 0.99), 50);
  // rank round(0.3 * 4) = round(1.2) = 1.
  EXPECT_EQ(percentile(v, 0.3), 20);
}

TEST(Percentile, P99OfHundredSamples) {
  std::vector<std::uint64_t> v;
  for (std::uint64_t i = 100; i >= 1; --i) v.push_back(i);
  // rank round(0.99 * 99) = round(98.01) = 98 -> the value 99.
  EXPECT_EQ(percentile(v, 0.99), 99);
  EXPECT_EQ(percentile(v, 0.5), 51);  // rank round(49.5) = 50 -> 51
}

TEST(Percentile, EmptyAndSingleton) {
  std::vector<double> none;
  EXPECT_EQ(percentile(none, 0.5), 0.0);
  std::vector<double> one = {7.5};
  EXPECT_EQ(percentile(one, 0.99), 7.5);
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Reference, ScalesRawTimeToTheNominalHost) {
  // A host running the reference at twice the nominal time halves the
  // raw time; one at the nominal time leaves it alone.
  const Timed slow{3.0, 2 * kReferenceNominalS};
  EXPECT_DOUBLE_EQ(slow.scaled_s(), 1.5);
  const Timed nominal{3.0, kReferenceNominalS};
  EXPECT_DOUBLE_EQ(nominal.scaled_s(), 3.0);
}

TEST(Reference, SummaryTakesMediansOfEachColumn) {
  const double r = kReferenceNominalS;
  const std::vector<Timed> timed = {{1.0, r}, {4.0, 2 * r}, {9.0, 3 * r}};
  const TimedSummary s = summarize(timed);
  EXPECT_DOUBLE_EQ(s.scaled_s, 2.0);  // scaled: 1, 2, 3
  EXPECT_DOUBLE_EQ(s.raw_s, 4.0);
  EXPECT_DOUBLE_EQ(s.reference_s, 2 * r);
  EXPECT_EQ(s.n, 3u);
}

TEST(SelfTimes, SubtractsDirectChildrenOnly) {
  // root [0, 100) holds a [10, 40) and b [50, 90); a holds c [20, 30).
  const std::vector<SpanRecord> spans = {
      {"root", 0, 100, SpanRecord::kNoParent},
      {"a", 10, 40, 0},
      {"c", 20, 30, 1},
      {"b", 50, 90, 0},
  };
  const auto self = self_times(spans);
  EXPECT_EQ(self[0], 100u - 30u - 40u);
  EXPECT_EQ(self[1], 30u - 10u);
  EXPECT_EQ(self[2], 10u);
  EXPECT_EQ(self[3], 40u);
  // Self times partition the top-level span's duration.
  EXPECT_EQ(self[0] + self[1] + self[2] + self[3], 100u);
}

TEST(SelfTimes, TopLevelSiblingsKeepTheirDurations) {
  const std::vector<SpanRecord> spans = {
      {"x", 0, 5, SpanRecord::kNoParent},
      {"y", 7, 10, SpanRecord::kNoParent},
  };
  const auto self = self_times(spans);
  EXPECT_EQ(self[0], 5u);
  EXPECT_EQ(self[1], 3u);
}

TEST(Tracer, RecordsNestingAndSumsSelfTimeByName) {
  Tracer tracer(true);
  {
    auto outer = tracer.span("outer");
    { auto inner = tracer.span("inner"); }
    { auto inner = tracer.span("inner"); }
  }
  ASSERT_EQ(tracer.spans().size(), 3u);
  EXPECT_EQ(tracer.spans()[1].parent, 0u);
  EXPECT_EQ(tracer.spans()[2].parent, 0u);
  const auto by_name = tracer.self_seconds_by_name();
  const double outer_s = static_cast<double>(tracer.spans()[0].duration_ns()) * 1e-9;
  EXPECT_NEAR(by_name.at("outer") + by_name.at("inner"), outer_s, 1e-12);
  EXPECT_NEAR(tracer.total_self_seconds(), outer_s, 1e-12);
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer tracer(false);
  { auto s = tracer.span("x"); }
  EXPECT_TRUE(tracer.spans().empty());
  EXPECT_EQ(tracer.total_self_seconds(), 0.0);
}

}  // namespace
}  // namespace perfbench
