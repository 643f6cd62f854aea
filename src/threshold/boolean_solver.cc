#include "threshold/boolean_solver.h"

#include <algorithm>
#include <cmath>

#include "common/math_util.h"

namespace dcv {
namespace {

// True when the atom holds for every assignment in [0, M]^n: its maximal
// left-hand side (all canonical variables at their domain max) fits.
bool AlwaysHolds(const CanonicalIneq& ineq,
                 const std::vector<int64_t>& domain_max) {
  int64_t max_lhs = 0;
  for (const CanonicalIneq::Term& t : ineq.terms) {
    max_lhs += t.coef * domain_max[static_cast<size_t>(t.var)];
  }
  return max_lhs <= ineq.bound;
}

// Left-hand side of the canonical atom at the box's extreme point.
int64_t ExtremeLhs(const CanonicalIneq& ineq,
                   const std::vector<SiteBounds>& bounds,
                   const std::vector<int64_t>& domain_max) {
  int64_t lhs = 0;
  for (const CanonicalIneq::Term& t : ineq.terms) {
    size_t v = static_cast<size_t>(t.var);
    int64_t y = t.mirrored ? domain_max[v] - bounds[v].lo : bounds[v].hi;
    lhs += t.coef * y;
  }
  return lhs;
}

// Log-probability that X_v lies in bounds[v] for every v, under the
// independence assumption.
double BoundsLogProbability(const std::vector<SiteBounds>& bounds,
                            const std::vector<const DistributionModel*>& models) {
  double log_prob = 0.0;
  for (size_t v = 0; v < bounds.size(); ++v) {
    const DistributionModel* m = models[v];
    double total = m->total_weight();
    if (total <= 0.0) {
      return kNegInf;
    }
    if (bounds[v].empty()) {
      return kNegInf;
    }
    double mass = m->CumulativeAt(bounds[v].hi) -
                  m->CumulativeAt(bounds[v].lo - 1);
    log_prob += SafeLog(mass / total);
  }
  return log_prob;
}

}  // namespace

Result<ThresholdProblem> MakeProblem(
    const CanonicalIneq& ineq,
    const std::vector<const DistributionModel*>& models) {
  ThresholdProblem problem;
  problem.budget = ineq.bound;
  for (const CanonicalIneq::Term& t : ineq.terms) {
    if (t.var < 0 || static_cast<size_t>(t.var) >= models.size() ||
        models[static_cast<size_t>(t.var)] == nullptr) {
      return InvalidArgumentError("no distribution model for variable x" +
                                  std::to_string(t.var));
    }
    problem.vars.push_back(ProblemVar{
        t.var, t.coef,
        CdfView(models[static_cast<size_t>(t.var)], t.mirrored)});
  }
  return problem;
}

bool BoundsCover(const std::vector<Clause>& clauses,
                 const std::vector<std::vector<CanonicalIneq>>& canonical,
                 const std::vector<SiteBounds>& bounds,
                 const std::vector<int64_t>& domain_max) {
  for (size_t j = 0; j < clauses.size(); ++j) {
    bool clause_covered = false;
    for (const CanonicalIneq& ineq : canonical[j]) {
      if (ineq.IsTriviallyFalse()) {
        continue;
      }
      if (ExtremeLhs(ineq, bounds, domain_max) <= ineq.bound) {
        clause_covered = true;
        break;
      }
    }
    if (!clause_covered) {
      return false;
    }
  }
  return true;
}

Result<BooleanSolution> BooleanThresholdSolver::Solve(
    const CnfConstraint& cnf,
    const std::vector<const DistributionModel*>& models) const {
  obs::ScopedTimer timer(metrics_ != nullptr
                             ? metrics_->histogram("solver/boolean/solve_us")
                             : nullptr);
  [[maybe_unused]] obs::Counter* subproblems =
      metrics_ != nullptr ? metrics_->counter("solver/boolean/subproblems")
                          : nullptr;
  const size_t n = models.size();
  for (size_t v = 0; v < n; ++v) {
    if (models[v] == nullptr) {
      return InvalidArgumentError("null distribution model for variable x" +
                                  std::to_string(v));
    }
  }
  if (cnf.max_var() >= static_cast<int>(n)) {
    return InvalidArgumentError(
        "constraint references variable x" + std::to_string(cnf.max_var()) +
        " but only " + std::to_string(n) + " models were supplied");
  }
  std::vector<int64_t> domain_max(n);
  for (size_t v = 0; v < n; ++v) {
    domain_max[v] = models[v]->domain_max();
  }

  // Canonicalize every atom of every clause.
  std::vector<std::vector<CanonicalIneq>> canonical(cnf.clauses.size());
  for (size_t j = 0; j < cnf.clauses.size(); ++j) {
    canonical[j].reserve(cnf.clauses[j].atoms.size());
    for (const LinearAtom& atom : cnf.clauses[j].atoms) {
      DCV_ASSIGN_OR_RETURN(CanonicalIneq ineq,
                           Canonicalize(atom, domain_max));
      canonical[j].push_back(std::move(ineq));
    }
  }

  BooleanSolution out;
  out.bounds.assign(n, SiteBounds{0, 0});
  for (size_t v = 0; v < n; ++v) {
    out.bounds[v] = SiteBounds{0, domain_max[v]};  // Unconstrained.
  }
  out.chosen_disjunct.assign(cnf.clauses.size(), -1);

  // §5.2 per clause: solve each disjunct, keep the best product.
  for (size_t j = 0; j < cnf.clauses.size(); ++j) {
    // A clause containing an always-true atom imposes nothing.
    bool clause_trivial = false;
    for (const CanonicalIneq& ineq : canonical[j]) {
      if (AlwaysHolds(ineq, domain_max)) {
        clause_trivial = true;
        break;
      }
    }
    if (clause_trivial) {
      continue;
    }

    double best_log_prob = kNegInf;
    bool have_choice = false;
    int best_k = -1;
    ThresholdSolution best_solution;
    for (size_t k = 0; k < canonical[j].size(); ++k) {
      const CanonicalIneq& ineq = canonical[j][k];
      if (ineq.IsTriviallyFalse()) {
        continue;  // This disjunct can never be guaranteed by thresholds.
      }
      DCV_ASSIGN_OR_RETURN(ThresholdProblem problem,
                           MakeProblem(ineq, models));
      DCV_OBS_COUNT(subproblems, 1);
      DCV_ASSIGN_OR_RETURN(ThresholdSolution sol, base_->Solve(problem));
      if (!have_choice || sol.log_probability > best_log_prob) {
        have_choice = true;
        best_log_prob = sol.log_probability;
        best_k = static_cast<int>(k);
        best_solution = std::move(sol);
      }
    }
    if (!have_choice) {
      return InfeasibleError(
          "clause " + std::to_string(j) +
          " has no satisfiable disjunct: the global constraint is "
          "unsatisfiable, so every state is a violation");
    }
    out.chosen_disjunct[j] = best_k;
    out.degenerate = out.degenerate || best_solution.degenerate;

    // §5.3 merge: intersect the clause's bounds into the running bounds.
    const CanonicalIneq& chosen = canonical[j][static_cast<size_t>(best_k)];
    for (size_t t = 0; t < chosen.terms.size(); ++t) {
      const CanonicalIneq::Term& term = chosen.terms[t];
      size_t v = static_cast<size_t>(term.var);
      int64_t threshold = best_solution.thresholds[t];
      if (term.mirrored) {
        out.bounds[v].lo =
            std::max(out.bounds[v].lo, domain_max[v] - threshold);
      } else {
        out.bounds[v].hi = std::min(out.bounds[v].hi, threshold);
      }
    }
  }

  // §5.3/5.4 lift: widen bounds while the covering check still passes.
  [[maybe_unused]] obs::Counter* lift_rounds =
      metrics_ != nullptr ? metrics_->counter("solver/boolean/lift_rounds")
                          : nullptr;
  for (int round = 0; round < options_.lift_rounds; ++round) {
    bool changed = false;
    DCV_OBS_COUNT(lift_rounds, 1);
    for (size_t v = 0; v < n; ++v) {
      // Widen hi by binary search over the largest feasible value.
      if (out.bounds[v].hi < domain_max[v] && !out.bounds[v].empty()) {
        int64_t lo = out.bounds[v].hi;
        int64_t hi = domain_max[v];
        while (lo < hi) {
          int64_t mid = hi - (hi - lo) / 2;  // Round up -> progress.
          std::vector<SiteBounds> trial = out.bounds;
          trial[v].hi = mid;
          if (BoundsCover(cnf.clauses, canonical, trial, domain_max)) {
            lo = mid;
          } else {
            hi = mid - 1;
          }
        }
        if (lo > out.bounds[v].hi) {
          out.bounds[v].hi = lo;
          changed = true;
        }
      }
      // Widen lo downward symmetrically.
      if (out.bounds[v].lo > 0 && !out.bounds[v].empty()) {
        int64_t lo = 0;
        int64_t hi = out.bounds[v].lo;
        while (lo < hi) {
          int64_t mid = lo + (hi - lo) / 2;  // Round down -> progress.
          std::vector<SiteBounds> trial = out.bounds;
          trial[v].lo = mid;
          if (BoundsCover(cnf.clauses, canonical, trial, domain_max)) {
            hi = mid;
          } else {
            lo = mid + 1;
          }
        }
        if (hi < out.bounds[v].lo) {
          out.bounds[v].lo = hi;
          changed = true;
        }
      }
    }
    if (!changed) {
      break;
    }
  }

  out.log_probability = BoundsLogProbability(out.bounds, models);
  if (out.log_probability == kNegInf) {
    out.degenerate = true;
  }
  return out;
}

}  // namespace dcv
