#include "trace/stats.h"

#include <algorithm>
#include <limits>
#include <string>

#include "common/math_util.h"

namespace dcv {

SiteStats ComputeSiteStats(const Trace& trace, int site) {
  SiteStats stats;
  if (trace.num_epochs() == 0) {
    return stats;
  }
  std::vector<int64_t> series = trace.SiteSeries(site);
  std::vector<double> values(series.begin(), series.end());
  stats.mean = Mean(values);
  stats.stddev = StdDev(values);
  stats.min = *std::min_element(series.begin(), series.end());
  stats.max = *std::max_element(series.begin(), series.end());
  stats.p50 = Quantile(values, 0.50);
  stats.p90 = Quantile(values, 0.90);
  stats.p99 = Quantile(values, 0.99);
  return stats;
}

std::vector<int64_t> EpochSums(const Trace& trace,
                               const std::vector<int64_t>& weights) {
  std::vector<int64_t> sums;
  sums.reserve(static_cast<size_t>(trace.num_epochs()));
  for (int64_t t = 0; t < trace.num_epochs(); ++t) {
    sums.push_back(trace.WeightedSum(t, weights));
  }
  return sums;
}

double OverflowFraction(const Trace& trace,
                        const std::vector<int64_t>& weights,
                        int64_t threshold) {
  if (trace.num_epochs() == 0) {
    return 0.0;
  }
  int64_t over = 0;
  for (int64_t t = 0; t < trace.num_epochs(); ++t) {
    if (trace.WeightedSum(t, weights) > threshold) {
      ++over;
    }
  }
  return static_cast<double>(over) / static_cast<double>(trace.num_epochs());
}

namespace {

/// Σ weight(i) · max(i) over n sites, checked term by term.
template <typename Weight, typename Max>
Status CheckSum(size_t n, Weight weight, Max max) {
  int64_t sum = 0;
  for (size_t i = 0; i < n; ++i) {
    const int64_t w = weight(i);
    if (w < 1) {
      return InvalidArgumentError("weights must be >= 1");
    }
    int64_t term = 0;
    if (__builtin_mul_overflow(w, max(i), &term) ||
        __builtin_add_overflow(sum, term, &sum)) {
      return InvalidArgumentError(
          "weighted sum overflows int64: weight x max value summed over "
          "sites 0.." +
          std::to_string(i) + " exceeds " +
          std::to_string(std::numeric_limits<int64_t>::max()));
    }
  }
  return OkStatus();
}

}  // namespace

Status CheckWeightedSumFits(const std::vector<int64_t>& weights,
                            const std::vector<int64_t>& maxima) {
  return CheckSum(
      maxima.size(),
      [&](size_t i) { return i < weights.size() ? weights[i] : 1; },
      [&](size_t i) { return maxima[i]; });
}

Status CheckWeightedSumFits(const std::vector<int64_t>& weights,
                            int64_t max) {
  return CheckSum(
      weights.size(), [&](size_t i) { return weights[i]; },
      [&](size_t) { return max; });
}

std::vector<int64_t> SiteMaxima(const Trace& trace) {
  std::vector<int64_t> maxima(static_cast<size_t>(trace.num_sites()), 0);
  for (int64_t t = 0; t < trace.num_epochs(); ++t) {
    const std::vector<int64_t>& row = trace.epoch(t);
    for (size_t i = 0; i < maxima.size(); ++i) {
      maxima[i] = std::max(maxima[i], row[i]);
    }
  }
  return maxima;
}

Result<int64_t> ThresholdForOverflowFraction(
    const Trace& trace, const std::vector<int64_t>& weights, double fraction) {
  if (trace.num_epochs() == 0) {
    return FailedPreconditionError("cannot pick a threshold from an empty trace");
  }
  if (fraction < 0.0 || fraction > 1.0) {
    return InvalidArgumentError("fraction must be in [0, 1]");
  }
  DCV_RETURN_IF_ERROR(CheckWeightedSumFits(weights, SiteMaxima(trace)));
  std::vector<int64_t> sums = EpochSums(trace, weights);
  std::sort(sums.begin(), sums.end());
  // We need the smallest T with #{sum > T} <= fraction * n, i.e. T at the
  // (1 - fraction) quantile position.
  const size_t n = sums.size();
  double allowed = fraction * static_cast<double>(n);
  size_t max_over = static_cast<size_t>(allowed);  // floor.
  // T = value at index n - max_over - 1 guarantees at most max_over sums
  // exceed it (those strictly greater).
  size_t idx = n - std::min(n, max_over + 1);
  if (max_over >= n) {
    return int64_t{0};
  }
  return sums[idx];
}

}  // namespace dcv
