#ifndef DCV_COMMON_RNG_H_
#define DCV_COMMON_RNG_H_

#include <cstdint>
#include <vector>

namespace dcv {

/// The whole position of one xoshiro256++ stream: 32 bytes. Rng wraps one;
/// the site engine keeps one per slot, with none of Rng's sampler state.
struct XoshiroState {
  uint64_t s[4];
};

/// One xoshiro256++ step: returns 64 random bits and advances `st`. The
/// only copy of the generator in the tree.
inline uint64_t XoshiroNext(XoshiroState& st) {
  auto rotl = [](uint64_t x, int k) { return (x << k) | (x >> (64 - k)); };
  uint64_t* s = st.s;
  const uint64_t result = rotl(s[0] + s[3], 23) + s[0];
  const uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = rotl(s[3], 45);
  return result;
}

/// The rejection threshold of a uniform draw in [0, bound), bound > 0:
/// raw draws below it are redrawn so that every residue is equally likely.
/// A caller drawing many times under one bound computes it once.
inline uint64_t RejectBelow(uint64_t bound) { return (-bound) % bound; }

/// Uniform in [0, bound) from `st`, given reject_below = RejectBelow(bound):
/// the one rejection rule behind every bounded draw.
inline uint64_t XoshiroBounded(XoshiroState& st, uint64_t bound,
                               uint64_t reject_below) {
  for (;;) {
    const uint64_t r = XoshiroNext(st);
    if (r >= reject_below) {
      return r % bound;
    }
  }
}

/// Deterministic, seedable pseudo-random generator (xoshiro256++), plus the
/// distribution samplers the trace generators need. All simulation and
/// benchmark randomness flows through this class so runs are reproducible
/// from a single seed.
class Rng {
 public:
  /// Seeds the generator; the seed is expanded with SplitMix64 so nearby
  /// seeds yield unrelated streams.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Raw 64 random bits.
  uint64_t NextUint64();

  /// Uniform in [0, bound). bound must be > 0.
  uint64_t NextUint64(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double UniformDouble();

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi);

  /// Standard normal via Box-Muller.
  double Normal(double mean = 0.0, double stddev = 1.0);

  /// Lognormal: exp(Normal(mu, sigma)).
  double LogNormal(double mu, double sigma);

  /// Exponential with the given rate (lambda > 0).
  double Exponential(double rate);

  /// Pareto with scale x_m > 0 and shape alpha > 0.
  double Pareto(double scale, double shape);

  /// Zipf-distributed integer in [1, n] with exponent s >= 0, by inverse
  /// transform over the precomputable harmonic weights. O(log n) per draw
  /// after an O(n) first-draw setup per (n, s) pair.
  int64_t Zipf(int64_t n, double s);

  /// Bernoulli(p).
  bool Bernoulli(double p);

  /// Returns a fresh generator whose stream is independent of this one
  /// (split via SplitMix64 of the next output).
  Rng Split();

  /// The generator's position: XoshiroNext on a copy continues this
  /// stream draw for draw.
  const XoshiroState& state() const { return state_; }

 private:
  XoshiroState state_;
  // Cached Zipf tables keyed by (n, s).
  struct ZipfTable {
    int64_t n;
    double s;
    std::vector<double> cdf;
  };
  std::vector<ZipfTable> zipf_tables_;
  bool has_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

}  // namespace dcv

#endif  // DCV_COMMON_RNG_H_
