#ifndef DCV_TRACE_STATS_H_
#define DCV_TRACE_STATS_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "trace/trace.h"

namespace dcv {

/// Summary statistics of one site's series.
struct SiteStats {
  double mean = 0.0;
  double stddev = 0.0;
  int64_t min = 0;
  int64_t max = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

/// Computes summary stats for a site; zeroes for an empty trace.
SiteStats ComputeSiteStats(const Trace& trace, int site);

/// Per-epoch weighted sums sum_i A_i * X_i(t). Empty weights mean all-ones.
std::vector<int64_t> EpochSums(const Trace& trace,
                               const std::vector<int64_t>& weights);

/// Fraction of epochs whose weighted sum strictly exceeds `threshold`.
double OverflowFraction(const Trace& trace,
                        const std::vector<int64_t>& weights,
                        int64_t threshold);

/// The one guard against weighted sums that wrap. Returns InvalidArgument
/// when a weight is below 1, or when the worst case Σ_i w_i · max_i does not
/// fit in int64, naming the first site where the running sum leaves it; OK
/// means no weighted sum (and no plain sum) of values in [0, max_i] can
/// overflow. One maximum per site in `maxima`; a site past the end of
/// `weights` weighs 1, as in Trace::WeightedSum.
Status CheckWeightedSumFits(const std::vector<int64_t>& weights,
                            const std::vector<int64_t>& maxima);

/// The same check where every site of `weights` has the maximum `max` (a
/// synthetic run), in the one pass over the weights.
Status CheckWeightedSumFits(const std::vector<int64_t>& weights, int64_t max);

/// Each site's largest value in `trace` (0 for an empty trace), in one
/// pass over its epochs.
std::vector<int64_t> SiteMaxima(const Trace& trace);

/// The smallest global threshold T such that at most `fraction` of the
/// trace's epochs have weighted sum > T. Used by the benchmark harness to
/// sweep the x-axis of Figure 1 ("% of observations for which the sum
/// exceeded the chosen global threshold"). Fails on an empty trace, and on
/// one whose weighted sums can overflow (CheckWeightedSumFits).
Result<int64_t> ThresholdForOverflowFraction(
    const Trace& trace, const std::vector<int64_t>& weights, double fraction);

}  // namespace dcv

#endif  // DCV_TRACE_STATS_H_
