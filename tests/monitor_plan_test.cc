#include "sim/monitor_plan.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace dcv {
namespace {

MonitorPlan SamplePlan() {
  MonitorPlan plan;
  plan.constraint_text = "r1 + r2 <= 100";
  plan.global_threshold = 100;
  plan.solver_name = "fptas";
  plan.site_names = {"r1", "r2"};
  plan.bounds = {SiteBounds{0, 60}, SiteBounds{0, 40}};
  return plan;
}

TEST(MonitorPlanTest, ValidateAcceptsGoodPlan) {
  EXPECT_TRUE(SamplePlan().Validate().ok());
}

TEST(MonitorPlanTest, ValidateRejectsMisalignment) {
  MonitorPlan plan = SamplePlan();
  plan.bounds.pop_back();
  EXPECT_FALSE(plan.Validate().ok());
}

TEST(MonitorPlanTest, ValidateRejectsBadNames) {
  MonitorPlan plan = SamplePlan();
  plan.site_names[0] = "has space";
  EXPECT_FALSE(plan.Validate().ok());
  plan = SamplePlan();
  plan.site_names[0] = "";
  EXPECT_FALSE(plan.Validate().ok());
  plan = SamplePlan();
  plan.site_names[1] = plan.site_names[0];
  EXPECT_FALSE(plan.Validate().ok());
}

TEST(MonitorPlanTest, SerializeParseRoundTrip) {
  MonitorPlan plan = SamplePlan();
  auto back = MonitorPlan::Parse(plan.Serialize());
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->constraint_text, plan.constraint_text);
  EXPECT_EQ(back->global_threshold, plan.global_threshold);
  EXPECT_EQ(back->solver_name, plan.solver_name);
  EXPECT_EQ(back->site_names, plan.site_names);
  EXPECT_EQ(back->bounds, plan.bounds);
}

TEST(MonitorPlanTest, ParseToleratesCommentsAndBlankLines) {
  const std::string text =
      "# dcv-monitor-plan v1\n"
      "\n"
      "# produced by dcvtool on 2026-07-04\n"
      "threshold: 42\n"
      "site: a 0 10\n";
  auto plan = MonitorPlan::Parse(text);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->global_threshold, 42);
  ASSERT_EQ(plan->site_names.size(), 1u);
  EXPECT_TRUE(plan->SiteOk(0, 10));
  EXPECT_FALSE(plan->SiteOk(0, 11));
}

TEST(MonitorPlanTest, ParseRejectsGarbage) {
  EXPECT_FALSE(MonitorPlan::Parse("").ok());
  EXPECT_FALSE(MonitorPlan::Parse("threshold: 5\n").ok());  // No header.
  EXPECT_FALSE(
      MonitorPlan::Parse("# dcv-monitor-plan v1\nwhat is this\n").ok());
  EXPECT_FALSE(
      MonitorPlan::Parse("# dcv-monitor-plan v1\nbogus: 1\n").ok());
  EXPECT_FALSE(
      MonitorPlan::Parse("# dcv-monitor-plan v1\nsite: a 1\n").ok());
  EXPECT_FALSE(
      MonitorPlan::Parse("# dcv-monitor-plan v1\nsite: a x y\n").ok());
}

TEST(MonitorPlanTest, ConstraintTextWithColonsSurvives) {
  MonitorPlan plan = SamplePlan();
  plan.constraint_text = "MIN{a, b} <= 5 && a <= 3";
  auto back = MonitorPlan::Parse(plan.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->constraint_text, plan.constraint_text);
}

TEST(MonitorPlanTest, FileRoundTrip) {
  MonitorPlan plan = SamplePlan();
  std::string path = testing::TempDir() + "/dcv_plan_test.txt";
  ASSERT_TRUE(plan.WriteToFile(path).ok());
  auto back = MonitorPlan::ReadFromFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->bounds, plan.bounds);
  std::remove(path.c_str());
  EXPECT_FALSE(MonitorPlan::ReadFromFile(path).ok());
}

TEST(MonitorPlanTest, EmptyAlwaysAlarmIntervalRoundTrips) {
  MonitorPlan plan = SamplePlan();
  plan.bounds[0] = SiteBounds{5, 4};  // Empty interval: always alarm.
  auto back = MonitorPlan::Parse(plan.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->bounds[0].empty());
  EXPECT_FALSE(back->SiteOk(0, 4));
  EXPECT_FALSE(back->SiteOk(0, 5));
}

TEST(MonitorPlanTest, LargePlanValidatesWithoutAPairwiseScan) {
  // 200k sites: a pairwise duplicate scan makes 2e10 string compares
  // (minutes); a hash set takes well under a second even in a sanitizer
  // build. The bound is generous so only the quadratic scan can miss it.
  constexpr int kSites = 200'000;
  MonitorPlan plan;
  for (int i = 0; i < kSites; ++i) {
    plan.site_names.push_back("s" + std::to_string(i));
    plan.bounds.push_back(SiteBounds{0, 10});
  }
  const auto start = std::chrono::steady_clock::now();
  auto parsed = MonitorPlan::Parse(plan.Serialize());
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->site_names.size(), static_cast<size_t>(kSites));
  EXPECT_LT(seconds, 30.0);
  plan.site_names.back() = plan.site_names.front();
  EXPECT_FALSE(plan.Validate().ok());
}

// --- Seeded mutation (a plan file is untrusted input) ----------------------

/// Every outcome is a plan that validates and survives its own round trip,
/// or a non-OK Status with a message.
void CheckPlanOutcome(const std::string& text) {
  auto plan = MonitorPlan::Parse(text);
  if (!plan.ok()) {
    const StatusCode code = plan.status().code();
    EXPECT_TRUE(code == StatusCode::kInvalidArgument ||
                code == StatusCode::kOutOfRange)
        << plan.status() << " for:\n" << text;
    EXPECT_FALSE(plan.status().message().empty()) << text;
    return;
  }
  EXPECT_TRUE(plan->Validate().ok()) << text;
  const std::string printed = plan->Serialize();
  auto again = MonitorPlan::Parse(printed);
  ASSERT_TRUE(again.ok()) << again.status() << " for:\n" << printed;
  EXPECT_EQ(again->Serialize(), printed);
  for (size_t i = 0; i < plan->bounds.size(); ++i) {
    (void)plan->SiteOk(static_cast<int>(i), 0);
  }
}

MonitorPlan FuzzBasePlan() {
  MonitorPlan plan;
  plan.constraint_text = "r1 + 2*r2 + r3 <= 1000";
  plan.global_threshold = 1000;
  plan.solver_name = "fptas";
  plan.site_names = {"r1", "r2", "r3"};
  plan.bounds = {SiteBounds{0, 410}, SiteBounds{0, 155}, SiteBounds{3, 270}};
  return plan;
}

TEST(MonitorPlanFuzzTest, MutatedPlansNeverCrash) {
  const std::string base = FuzzBasePlan().Serialize();
  ASSERT_TRUE(MonitorPlan::Parse(base).ok());
  Rng rng(0xB1A2);
  int parsed_ok = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    std::string text = base;
    const int edits = static_cast<int>(rng.UniformInt(1, 3));
    for (int e = 0; e < edits && !text.empty(); ++e) {
      const int64_t size = static_cast<int64_t>(text.size());
      const size_t pos = static_cast<size_t>(rng.UniformInt(0, size - 1));
      switch (rng.UniformInt(0, 3)) {
        case 0:  // Flip one byte to any value.
          text[pos] = static_cast<char>(rng.UniformInt(0, 255));
          break;
        case 1:  // Truncate.
          text.resize(pos);
          break;
        case 2: {  // Splice a slice of the plan somewhere else.
          const size_t len =
              static_cast<size_t>(rng.UniformInt(1, std::min<int64_t>(
                                                        40, size - pos)));
          const std::string slice = text.substr(pos, len);
          text.insert(static_cast<size_t>(rng.UniformInt(0, size)), slice);
          break;
        }
        default:  // Cut a slice out.
          text.erase(pos, static_cast<size_t>(rng.UniformInt(1, 20)));
          break;
      }
    }
    parsed_ok += MonitorPlan::Parse(text).ok() ? 1 : 0;
    CheckPlanOutcome(text);
  }
  // Light mutation keeps a healthy fraction of plans valid.
  EXPECT_GT(parsed_ok, 1000);
}

TEST(MonitorPlanFuzzTest, EveryPrefixAndEveryByteFlipIsHandled) {
  const std::string base = FuzzBasePlan().Serialize();
  for (size_t cut = 0; cut <= base.size(); ++cut) {
    CheckPlanOutcome(base.substr(0, cut));
  }
  Rng rng(0xB1A3);
  for (size_t pos = 0; pos < base.size(); ++pos) {
    std::string text = base;
    text[pos] = static_cast<char>(text[pos] ^ (1 << rng.UniformInt(0, 7)));
    CheckPlanOutcome(text);
  }
}

}  // namespace
}  // namespace dcv
