#include "threshold/fptas.h"

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "common/rng.h"
#include "histogram/empirical_cdf.h"
#include "histogram/equi_depth.h"
#include "threshold/exact_dp.h"

namespace dcv {
namespace {

struct RandomInstance {
  std::vector<std::unique_ptr<EmpiricalCdf>> models;
  ThresholdProblem problem;
};

RandomInstance MakeRandomInstance(Rng& rng, int max_vars, int64_t max_domain,
                                  int64_t max_budget) {
  RandomInstance inst;
  const int n = static_cast<int>(rng.UniformInt(1, max_vars));
  inst.problem.budget = rng.UniformInt(0, max_budget);
  for (int i = 0; i < n; ++i) {
    const int64_t m = rng.UniformInt(2, max_domain);
    std::vector<int64_t> data;
    const int count = static_cast<int>(rng.UniformInt(4, 20));
    for (int k = 0; k < count; ++k) {
      data.push_back(rng.UniformInt(0, m));
    }
    inst.models.push_back(std::make_unique<EmpiricalCdf>(data, m));
    inst.problem.vars.push_back(ProblemVar{
        i, rng.UniformInt(1, 3), CdfView(inst.models.back().get(), false)});
  }
  return inst;
}

TEST(FptasTest, EmptyProblem) {
  FptasSolver solver;
  auto sol = solver.Solve(ThresholdProblem{});
  ASSERT_TRUE(sol.ok());
  EXPECT_TRUE(sol->thresholds.empty());
}

TEST(FptasTest, RejectsNonPositiveEps) {
  FptasSolver solver(0.0);
  EmpiricalCdf model({1, 2}, 3);
  ThresholdProblem p;
  p.budget = 3;
  p.vars.push_back(ProblemVar{0, 1, CdfView(&model, false)});
  EXPECT_FALSE(solver.Solve(p).ok());
}

TEST(FptasTest, RejectsNanEps) {
  // NaN passes an `eps <= 0` test; the solver must still refuse it rather
  // than size its DP from ceil(NaN).
  FptasSolver solver(std::nan(""));
  EmpiricalCdf model({1, 2}, 3);
  ThresholdProblem p;
  p.budget = 3;
  p.vars.push_back(ProblemVar{0, 1, CdfView(&model, false)});
  auto sol = solver.Solve(p);
  ASSERT_FALSE(sol.ok());
  EXPECT_EQ(sol.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(sol.status().message().find("eps"), std::string::npos);
}

TEST(FptasTest, SingleVariableIsExact) {
  EmpiricalCdf model({0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 9);
  ThresholdProblem p;
  p.budget = 6;
  p.vars.push_back(ProblemVar{0, 1, CdfView(&model, false)});
  FptasSolver solver(0.05);
  auto sol = solver.Solve(p);
  ASSERT_TRUE(sol.ok());
  // With one variable the level search finds the largest affordable
  // threshold's probability class; the chosen threshold must be within an
  // alpha factor of the best P = 0.7.
  EXPECT_TRUE(SatisfiesBudget(p, sol->thresholds));
  EXPECT_GE(std::exp(sol->log_probability), 0.7 / 1.05 - 1e-9);
}

TEST(FptasTest, AlwaysSatisfiesBudget) {
  Rng rng(123);
  FptasSolver solver(0.1);
  for (int trial = 0; trial < 50; ++trial) {
    RandomInstance inst = MakeRandomInstance(rng, 6, 30, 60);
    auto sol = solver.Solve(inst.problem);
    ASSERT_TRUE(sol.ok()) << sol.status();
    EXPECT_TRUE(SatisfiesBudget(inst.problem, sol->thresholds))
        << "trial " << trial;
  }
}

class FptasApproximationSweep : public testing::TestWithParam<double> {};

TEST_P(FptasApproximationSweep, WithinOnePlusEpsOfExactDp) {
  const double eps = GetParam();
  Rng rng(static_cast<uint64_t>(eps * 1e6) + 7);
  FptasSolver fptas(eps);
  ExactDpSolver exact;
  int nontrivial = 0;
  for (int trial = 0; trial < 40; ++trial) {
    RandomInstance inst = MakeRandomInstance(rng, 4, 12, 30);
    auto approx = fptas.Solve(inst.problem);
    auto opt = exact.Solve(inst.problem);
    ASSERT_TRUE(approx.ok());
    ASSERT_TRUE(opt.ok());
    if (opt->log_probability == kNegInf) {
      continue;  // Degenerate instance: nothing to compare.
    }
    ++nontrivial;
    // prod_approx >= prod_opt / (1 + eps)  <=>
    // log_approx >= log_opt - log(1 + eps).
    EXPECT_GE(approx->log_probability,
              opt->log_probability - std::log1p(eps) - 1e-9)
        << "trial " << trial << " eps " << eps;
    // And the approximation can never beat the optimum.
    EXPECT_LE(approx->log_probability, opt->log_probability + 1e-9);
  }
  EXPECT_GT(nontrivial, 10);
}

INSTANTIATE_TEST_SUITE_P(EpsValues, FptasApproximationSweep,
                         testing::Values(0.5, 0.2, 0.05, 0.01));

TEST(FptasTest, MatchesExactDpOnSkewedHistograms) {
  // Equi-depth histograms from lognormal data, as in the paper's setup.
  Rng rng(321);
  std::vector<std::unique_ptr<EquiDepthHistogram>> models;
  ThresholdProblem p;
  const int n = 3;
  for (int i = 0; i < n; ++i) {
    std::vector<int64_t> data;
    for (int k = 0; k < 500; ++k) {
      data.push_back(static_cast<int64_t>(rng.LogNormal(2.0 + i, 0.8)));
    }
    auto h = EquiDepthHistogram::Build(data, 500, 50);
    ASSERT_TRUE(h.ok());
    models.push_back(std::make_unique<EquiDepthHistogram>(std::move(*h)));
    p.vars.push_back(ProblemVar{i, 1, CdfView(models.back().get(), false)});
  }
  p.budget = 120;
  FptasSolver fptas(0.05);
  ExactDpSolver exact;
  auto approx = fptas.Solve(p);
  auto opt = exact.Solve(p);
  ASSERT_TRUE(approx.ok());
  ASSERT_TRUE(opt.ok());
  ASSERT_GT(opt->log_probability, kNegInf);
  EXPECT_GE(approx->log_probability,
            opt->log_probability - std::log1p(0.05) - 1e-9);
}

TEST(FptasTest, DegenerateFallbackWhenBudgetTooTight) {
  // All observations at 10; budget cannot reach threshold 10.
  EmpiricalCdf model(std::vector<int64_t>(5, 10), 10);
  ThresholdProblem p;
  p.budget = 4;
  p.vars.push_back(ProblemVar{0, 1, CdfView(&model, false)});
  FptasSolver solver(0.05);
  auto sol = solver.Solve(p);
  ASSERT_TRUE(sol.ok());
  EXPECT_TRUE(sol->degenerate);
  EXPECT_TRUE(SatisfiesBudget(p, sol->thresholds));
  EXPECT_EQ(sol->log_probability, kNegInf);
}

TEST(FptasTest, StatsReportPlausibleSizes) {
  Rng rng(55);
  RandomInstance inst = MakeRandomInstance(rng, 5, 50, 100);
  FptasSolver solver(0.1);
  FptasSolver::Stats stats;
  auto sol = solver.SolveWithStats(inst.problem, &stats);
  ASSERT_TRUE(sol.ok());
  EXPECT_GT(stats.useful_levels, 0);
  EXPECT_GE(stats.total_levels, 0);
  EXPECT_EQ(stats.dp_cells,
            static_cast<int64_t>(inst.problem.vars.size()) *
                (stats.total_levels + 1));
  if (!sol->degenerate) {
    EXPECT_GE(stats.deficit, 0);
  }
}

TEST(FptasTest, DpCellGuard) {
  // A tight budget forces a deep deficit search; a tiny cell cap must
  // surface as ResourceExhausted rather than a silent fallback.
  EmpiricalCdf model({10, 20, 30, 40, 50}, 50);
  ThresholdProblem p;
  p.budget = 10;  // Only the smallest observation is affordable.
  p.vars.push_back(ProblemVar{0, 1, CdfView(&model, false)});
  p.vars.push_back(ProblemVar{1, 1, CdfView(&model, false)});
  FptasSolver::Options options;
  options.eps = 0.001;
  options.max_dp_cells = 8;
  FptasSolver solver(options);
  EXPECT_EQ(solver.Solve(p).status().code(), StatusCode::kResourceExhausted);
}

TEST(FptasTest, SmallerEpsNeverWorse) {
  Rng rng(77);
  for (int trial = 0; trial < 15; ++trial) {
    RandomInstance inst = MakeRandomInstance(rng, 4, 20, 40);
    FptasSolver coarse(0.5);
    FptasSolver fine(0.01);
    auto a = coarse.Solve(inst.problem);
    auto b = fine.Solve(inst.problem);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    // Finer eps has a strictly tighter guarantee; allow the rounding noise
    // of the coarse grid.
    EXPECT_GE(b->log_probability, a->log_probability - 1e-9);
  }
}

TEST(FptasTest, MirroredProblemRespectsBudget) {
  EmpiricalCdf model({6, 7, 8, 9, 10}, 10);
  ThresholdProblem p;
  p.budget = 9;
  p.vars.push_back(ProblemVar{0, 1, CdfView(&model, true)});
  p.vars.push_back(ProblemVar{1, 1, CdfView(&model, true)});
  FptasSolver solver(0.05);
  auto sol = solver.Solve(p);
  ASSERT_TRUE(sol.ok());
  EXPECT_TRUE(SatisfiesBudget(p, sol->thresholds));
  EXPECT_GT(sol->log_probability, kNegInf);
}

}  // namespace
}  // namespace dcv
