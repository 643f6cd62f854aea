#include "trace/stats.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

namespace dcv {
namespace {

Trace MakeTrace(std::vector<std::vector<int64_t>> rows) {
  Trace t(static_cast<int>(rows[0].size()));
  for (auto& r : rows) {
    EXPECT_TRUE(t.AppendEpoch(std::move(r)).ok());
  }
  return t;
}

TEST(SiteStatsTest, BasicMoments) {
  Trace t = MakeTrace({{2}, {4}, {4}, {4}, {5}, {5}, {7}, {9}});
  SiteStats s = ComputeSiteStats(t, 0);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_EQ(s.min, 2);
  EXPECT_EQ(s.max, 9);
  EXPECT_NEAR(s.p50, 4.5, 1e-9);
}

TEST(SiteStatsTest, EmptyTrace) {
  Trace t(1);
  SiteStats s = ComputeSiteStats(t, 0);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_EQ(s.max, 0);
}

TEST(EpochSumsTest, WeightedAndUnweighted) {
  Trace t = MakeTrace({{1, 2}, {3, 4}});
  EXPECT_EQ(EpochSums(t, {}), (std::vector<int64_t>{3, 7}));
  EXPECT_EQ(EpochSums(t, {10, 1}), (std::vector<int64_t>{12, 34}));
}

TEST(OverflowFractionTest, CountsStrictExceedances) {
  Trace t = MakeTrace({{1}, {2}, {3}, {4}});
  EXPECT_DOUBLE_EQ(OverflowFraction(t, {}, 2), 0.5);   // 3 and 4 exceed.
  EXPECT_DOUBLE_EQ(OverflowFraction(t, {}, 4), 0.0);
  EXPECT_DOUBLE_EQ(OverflowFraction(t, {}, 0), 1.0);
}

TEST(ThresholdForOverflowFractionTest, AchievesRequestedFraction) {
  std::vector<std::vector<int64_t>> rows;
  for (int i = 1; i <= 100; ++i) {
    rows.push_back({i});
  }
  Trace t = MakeTrace(std::move(rows));
  for (double frac : {0.0, 0.01, 0.05, 0.10, 0.25, 0.5}) {
    auto threshold = ThresholdForOverflowFraction(t, {}, frac);
    ASSERT_TRUE(threshold.ok());
    double achieved = OverflowFraction(t, {}, *threshold);
    EXPECT_LE(achieved, frac + 1e-12) << "frac=" << frac;
    // And the threshold is tight: one step lower overflows too much.
    if (*threshold > 0) {
      EXPECT_GT(OverflowFraction(t, {}, *threshold - 1), frac - 0.011);
    }
  }
}

TEST(ThresholdForOverflowFractionTest, EdgeCases) {
  Trace empty(1);
  EXPECT_FALSE(ThresholdForOverflowFraction(empty, {}, 0.1).ok());
  Trace t = MakeTrace({{5}});
  EXPECT_FALSE(ThresholdForOverflowFraction(t, {}, -0.1).ok());
  EXPECT_FALSE(ThresholdForOverflowFraction(t, {}, 1.5).ok());
  auto all = ThresholdForOverflowFraction(t, {}, 1.0);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, 0);
  auto none = ThresholdForOverflowFraction(t, {}, 0.0);
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(*none, 5);
}

TEST(CheckWeightedSumFitsTest, RejectsWorstCasesOutsideInt64) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  using Maxima = std::vector<int64_t>;
  EXPECT_TRUE(CheckWeightedSumFits({}, Maxima{kMax}).ok());
  EXPECT_TRUE(
      CheckWeightedSumFits({1, 1}, Maxima{kMax / 2, kMax / 2 + 1}).ok());
  EXPECT_TRUE(CheckWeightedSumFits({3, 3, 3}, kMax / 9).ok());
  EXPECT_TRUE(CheckWeightedSumFits({}, Maxima{}).ok());
  // Sites past the end of the weights weigh 1; extra weights weigh nothing.
  EXPECT_TRUE(CheckWeightedSumFits({1}, Maxima{kMax / 2, kMax / 2}).ok());
  EXPECT_FALSE(
      CheckWeightedSumFits({1}, Maxima{kMax / 2, kMax / 2 + 2}).ok());
  EXPECT_TRUE(CheckWeightedSumFits({1, 1, 5}, Maxima{kMax / 2}).ok());
  const Status sum =
      CheckWeightedSumFits({}, Maxima{kMax / 2, kMax / 2 + 2});
  EXPECT_EQ(sum.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(sum.message().find("weighted sum overflows int64"),
            std::string::npos)
      << sum.message();
  EXPECT_NE(sum.message().find("sites 0..1"), std::string::npos)
      << sum.message();
  // The product alone overflows; a shared max counts for every weight.
  EXPECT_FALSE(CheckWeightedSumFits({1, 3}, kMax / 2).ok());
  EXPECT_FALSE(CheckWeightedSumFits({2, 2, 2}, kMax / 5).ok());
  const Status weight = CheckWeightedSumFits({1, 0}, Maxima{5, 5});
  EXPECT_EQ(weight.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(weight.message(), "weights must be >= 1");
}

TEST(CheckWeightedSumFitsTest, ThresholdSelectionRejectsAWrappingTrace) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  Trace t = MakeTrace({{kMax / 2, 1}, {1, kMax / 2 + 2}});
  EXPECT_EQ(SiteMaxima(t), (std::vector<int64_t>{kMax / 2, kMax / 2 + 2}));
  const auto threshold = ThresholdForOverflowFraction(t, {}, 0.5);
  ASSERT_FALSE(threshold.ok());
  EXPECT_EQ(threshold.status().code(), StatusCode::kInvalidArgument);
}

TEST(ThresholdForOverflowFractionTest, RespectsWeights) {
  Trace t = MakeTrace({{1, 1}, {2, 2}, {3, 3}});
  auto threshold = ThresholdForOverflowFraction(t, {10, 1}, 0.0);
  ASSERT_TRUE(threshold.ok());
  EXPECT_EQ(*threshold, 33);
}

}  // namespace
}  // namespace dcv
