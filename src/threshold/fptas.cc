#include "threshold/fptas.h"

#include <cmath>
#include <vector>

#include "common/math_util.h"

namespace dcv {
namespace {

/// One deduplicated deficit level of a variable: choosing it spends
/// `deficit` units of the DP's level budget and sets the threshold to
/// `threshold` (the smallest t with P(t) >= alpha^-deficit).
struct Level {
  int64_t deficit;
  int64_t threshold;
};

/// Lazily-extended level list for one variable. Levels are generated in
/// increasing deficit order and deduplicated on threshold (the smallest
/// deficit per distinct threshold is kept; larger deficits with the same
/// threshold are dominated). Generation stops once the threshold cannot
/// decrease further (t == t_floor) or a cap is hit.
class LevelGenerator {
 public:
  LevelGenerator(const CdfView* cdf, double ln_alpha, double prob_floor,
                 int64_t max_levels)
      : cdf_(cdf), ln_alpha_(ln_alpha), max_levels_(max_levels) {
    // Smallest threshold with probability above the floor: no level below
    // it is ever useful.
    t_floor_ = cdf_->MinValueWithProbAtLeast(prob_floor);
    if (t_floor_ > cdf_->domain_max()) {
      t_floor_ = cdf_->domain_max();
    }
  }

  /// Ensures all levels with deficit <= p are generated.
  void ExtendTo(int64_t p) {
    while (!exhausted_ && next_s_ <= std::min(p, max_levels_)) {
      double target = std::exp(-static_cast<double>(next_s_) * ln_alpha_);
      int64_t t = cdf_->MinValueWithProbAtLeast(target);
      if (t <= cdf_->domain_max() &&
          (levels_.empty() || t < levels_.back().threshold)) {
        if (t <= t_floor_) {
          t = t_floor_;
          exhausted_ = true;  // Cannot decrease further.
        }
        if (levels_.empty() || t < levels_.back().threshold) {
          levels_.push_back(Level{next_s_, t});
        }
      }
      ++next_s_;
    }
    if (next_s_ > max_levels_) {
      exhausted_ = true;
    }
  }

  const std::vector<Level>& levels() const { return levels_; }

 private:
  const CdfView* cdf_;
  double ln_alpha_;
  int64_t max_levels_;
  int64_t t_floor_ = 0;
  int64_t next_s_ = 0;
  bool exhausted_ = false;
  std::vector<Level> levels_;
};

}  // namespace

Result<ThresholdSolution> FptasSolver::SolveWithStats(
    const ThresholdProblem& problem, Stats* stats) const {
  obs::ScopedTimer timer(metrics_ != nullptr
                             ? metrics_->histogram("solver/fptas/solve_us")
                             : nullptr);
  DCV_RETURN_IF_ERROR(ValidateProblem(problem));
  if (!(options_.eps > 0.0)) {  // NaN must fail too: ceil(NaN) is no size.
    return InvalidArgumentError("FPTAS eps must be positive");
  }
  const size_t n = problem.vars.size();
  *stats = Stats{};
  if (n == 0) {
    return ThresholdSolution{};
  }
  const double ln_alpha =
      std::log1p(options_.eps / (2.0 * static_cast<double>(n)));
  // Deficits beyond the floor are never useful: ceil(-ln(floor)/ln(alpha)).
  const int64_t max_deficit = static_cast<int64_t>(
      std::ceil(-std::log(options_.prob_floor) / ln_alpha));
  const int64_t per_var_cap =
      std::min(options_.max_levels_per_var, max_deficit);
  const int64_t natural_cap = static_cast<int64_t>(n) * per_var_cap;
  const int64_t cell_cap = options_.max_dp_cells / static_cast<int64_t>(n);
  const int64_t total_cap = std::min(natural_cap, cell_cap);

  std::vector<LevelGenerator> generators;
  generators.reserve(n);
  for (const ProblemVar& v : problem.vars) {
    generators.emplace_back(&v.cdf, ln_alpha, options_.prob_floor,
                            per_var_cap);
  }

  // Deficit-major DP with early exit (the paper's table filled column by
  // column): dp[i][p] = D(i, p) = min sum_{k<=i} A_k * I_k(s_k) subject to
  // sum s_k <= p. We stop at the first p with D(n, p) <= budget — for
  // well-provisioned budgets this is orders of magnitude below the worst
  // case L = ceil(log_alpha(P-bar)).
  //
  // dp[0] corresponds to zero variables (weight 0); dp[i] to the first i.
  std::vector<std::vector<int64_t>> dp(n + 1);
  std::vector<std::vector<int32_t>> choice(n);

  int64_t p_star = -1;
  for (int64_t p = 0; p <= total_cap; ++p) {
    dp[0].push_back(0);
    for (size_t i = 0; i < n; ++i) {
      const ProblemVar& v = problem.vars[i];
      generators[i].ExtendTo(p);
      const std::vector<Level>& lv = generators[i].levels();
      int64_t best = std::numeric_limits<int64_t>::max();
      int32_t best_level = 0;
      for (size_t k = 0; k < lv.size(); ++k) {
        if (lv[k].deficit > p) {
          break;  // Levels are sorted by deficit.
        }
        int64_t w = v.weight * lv[k].threshold +
                    dp[i][static_cast<size_t>(p - lv[k].deficit)];
        if (w < best) {
          best = w;
          best_level = static_cast<int32_t>(k);
        }
      }
      dp[i + 1].push_back(best);
      choice[i].push_back(best_level);
    }
    if (dp[n].back() <= problem.budget) {
      p_star = p;
      break;
    }
  }

  stats->deficit = p_star;
  for (size_t i = 0; i < n; ++i) {
    stats->useful_levels += static_cast<int64_t>(generators[i].levels().size());
  }
  stats->total_levels = static_cast<int64_t>(dp[1].size()) - 1;
  stats->dp_cells = static_cast<int64_t>(n) *
                    static_cast<int64_t>(dp[1].size());
  if (metrics_ != nullptr) {
    metrics_->counter("solver/fptas/solves")->Increment();
    metrics_->counter("solver/fptas/dp_cells")->Increment(stats->dp_cells);
    metrics_->counter("solver/fptas/levels")->Increment(stats->useful_levels);
    // Size of the rounding grid (explored deficit columns) of the most
    // recent solve — the quantity the 1/eps term of the FPTAS bound scales.
    metrics_->gauge("solver/fptas/rounding_grid")
        ->Set(static_cast<double>(stats->total_levels));
  }

  if (p_star < 0) {
    if (cell_cap < natural_cap) {
      // The search was truncated by the cell budget, not exhausted: report
      // the resource limit instead of silently degrading.
      return ResourceExhaustedError(
          "FPTAS DP exceeded max_dp_cells before finding a feasible "
          "deficit; raise max_dp_cells or eps");
    }
    // No positive-probability assignment fits; fall back (covering holds).
    return DegenerateFallback(problem);
  }

  ThresholdSolution solution;
  solution.thresholds.assign(n, 0);
  int64_t p = p_star;
  for (size_t i = n; i-- > 0;) {
    const Level& lv = generators[i].levels()[static_cast<size_t>(
        choice[i][static_cast<size_t>(p)])];
    solution.thresholds[i] = lv.threshold;
    p -= lv.deficit;
  }
  if (options_.redistribute_slack) {
    RedistributeSlack(problem, &solution.thresholds);
  }
  solution.log_probability = LogProbability(problem, solution.thresholds);
  return solution;
}

}  // namespace dcv
