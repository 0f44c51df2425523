#include "stats.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

namespace perfbench {
namespace {

std::vector<double> Range(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(StatsTest, EmptySetIsAllZero) {
  const Summary s = Summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.median, 0.0);
  EXPECT_EQ(s.tail_pct, 0.0);
}

TEST(StatsTest, MedianAndQuartilesInterpolate) {
  const Summary s = Summarize({4.0, 1.0, 3.0, 2.0});
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  EXPECT_DOUBLE_EQ(s.q1, 1.75);
  EXPECT_DOUBLE_EQ(s.q3, 3.25);
}

TEST(StatsTest, TailNeedsTenSamplesAboveIt) {
  EXPECT_EQ(HighestSupportedPercentile(11, 99.0), 0.0);
  // 1001 samples: p99 sits exactly at rank 990, leaving 10 above. With
  // 1000 the p99 rank (989.01) rounds up to 990 and leaves only 9.
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(1001, 99.0), 99.0);
  EXPECT_LT(HighestSupportedPercentile(1000, 99.0), 99.0);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(100000, 99.0), 99.0);

  const Summary s = Summarize(Range(1001));
  EXPECT_DOUBLE_EQ(s.tail_pct, 99.0);
  EXPECT_DOUBLE_EQ(s.tail, 991.0);
  size_t above = 0;
  for (double v : Range(1001)) above += v > s.tail ? 1 : 0;
  EXPECT_EQ(above, kTailMargin);
}

TEST(StatsTest, SmallSetsReportTheHighestSupportedPercentile) {
  const Summary s = Summarize(Range(111));
  // 100 * (110 - 10) / 110.
  EXPECT_NEAR(s.tail_pct, 90.909090909, 1e-6);
  size_t above = 0;
  for (double v : Range(111)) above += v > s.tail ? 1 : 0;
  EXPECT_EQ(above, kTailMargin);
}

TEST(StatsTest, FailedSamplesSortLast) {
  std::vector<double> v = Range(1000);
  v[0] = std::numeric_limits<double>::infinity();
  const Summary s = Summarize(v);
  EXPECT_DOUBLE_EQ(s.median, 501.5);
  EXPECT_TRUE(std::isfinite(s.tail));
  const Summary all_failed =
      Summarize(std::vector<double>(20, std::numeric_limits<double>::infinity()));
  EXPECT_TRUE(std::isinf(all_failed.median));
}

TEST(StatsTest, MinSamplesInvertsTheTailRule) {
  EXPECT_EQ(MinSamplesForPercentile(99.0), 1001u);
  const size_t n95 = MinSamplesForPercentile(95.0);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(n95, 95.0), 95.0);
  EXPECT_LT(HighestSupportedPercentile(n95 - 1, 95.0), 95.0);
}

TEST(StatsTest, WindowedTailFallsBackToTheWholeSetWhenShort) {
  const std::vector<double> v = Range(2001);
  const WindowedTail t = MedianWindowTail(v);
  EXPECT_EQ(t.windows, 1u);
  EXPECT_DOUBLE_EQ(t.tail, Summarize(v).tail);
  EXPECT_EQ(MedianWindowTail({}).windows, 0u);
}

TEST(StatsTest, WindowedTailIsTheMedianOfTheWindowTails) {
  // Three windows of 1001 samples; the middle one is slow throughout.
  std::vector<double> v;
  for (double scale : {1.0, 10.0, 2.0}) {
    for (double x : Range(1001)) v.push_back(scale * x);
  }
  const WindowedTail t = MedianWindowTail(v);
  EXPECT_EQ(t.windows, 3u);
  EXPECT_DOUBLE_EQ(t.tail_pct, 99.0);
  EXPECT_DOUBLE_EQ(t.tail, 2.0 * 991.0);
  // The whole set's p99 lands inside the slow window.
  EXPECT_GT(Summarize(v).tail, 9000.0);
}

}  // namespace
}  // namespace perfbench
