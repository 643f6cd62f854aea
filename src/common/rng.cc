#include "common/rng.h"

#include <cmath>

#include "common/logging.h"

namespace dcv {
namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (uint64_t& s : state_.s) {
    s = SplitMix64(&sm);
  }
}

uint64_t Rng::NextUint64() { return XoshiroNext(state_); }

uint64_t Rng::NextUint64(uint64_t bound) {
  DCV_CHECK(bound > 0) << "bound must be positive";
  return XoshiroBounded(state_, bound, RejectBelow(bound));
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  DCV_CHECK(lo <= hi) << "UniformInt requires lo <= hi";
  uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
  if (span == 0) {  // Full 64-bit range.
    return static_cast<int64_t>(NextUint64());
  }
  return lo + static_cast<int64_t>(NextUint64(span));
}

double Rng::UniformDouble() {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::UniformDouble(double lo, double hi) {
  return lo + (hi - lo) * UniformDouble();
}

double Rng::Normal(double mean, double stddev) {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return mean + stddev * spare_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = UniformDouble();
  } while (u1 <= 1e-300);
  double u2 = UniformDouble();
  double radius = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  spare_normal_ = radius * std::sin(theta);
  has_spare_normal_ = true;
  return mean + stddev * radius * std::cos(theta);
}

double Rng::LogNormal(double mu, double sigma) {
  return std::exp(Normal(mu, sigma));
}

double Rng::Exponential(double rate) {
  DCV_CHECK(rate > 0) << "Exponential rate must be positive";
  double u = 0.0;
  do {
    u = UniformDouble();
  } while (u <= 1e-300);
  return -std::log(u) / rate;
}

double Rng::Pareto(double scale, double shape) {
  DCV_CHECK(scale > 0 && shape > 0) << "Pareto parameters must be positive";
  double u = 0.0;
  do {
    u = UniformDouble();
  } while (u <= 1e-300);
  return scale / std::pow(u, 1.0 / shape);
}

int64_t Rng::Zipf(int64_t n, double s) {
  DCV_CHECK(n >= 1) << "Zipf support size must be >= 1";
  DCV_CHECK(s >= 0) << "Zipf exponent must be non-negative";
  // Find or build the cached CDF table.
  const ZipfTable* table = nullptr;
  for (const auto& t : zipf_tables_) {
    if (t.n == n && t.s == s) {
      table = &t;
      break;
    }
  }
  if (table == nullptr) {
    ZipfTable t;
    t.n = n;
    t.s = s;
    t.cdf.resize(static_cast<size_t>(n));
    double acc = 0.0;
    for (int64_t k = 1; k <= n; ++k) {
      acc += 1.0 / std::pow(static_cast<double>(k), s);
      t.cdf[static_cast<size_t>(k - 1)] = acc;
    }
    for (auto& c : t.cdf) {
      c /= acc;
    }
    zipf_tables_.push_back(std::move(t));
    table = &zipf_tables_.back();
  }
  double u = UniformDouble();
  // Binary search for the first CDF entry >= u.
  size_t lo = 0;
  size_t hi = table->cdf.size() - 1;
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (table->cdf[mid] >= u) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return static_cast<int64_t>(lo) + 1;
}

bool Rng::Bernoulli(double p) { return UniformDouble() < p; }

Rng Rng::Split() { return Rng(NextUint64()); }

}  // namespace dcv
