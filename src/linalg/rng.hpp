#ifndef BACO_LINALG_RNG_HPP_
#define BACO_LINALG_RNG_HPP_

/**
 * @file
 * Deterministic random-number utilities.
 *
 * Every stochastic component in the library draws from an explicitly passed
 * RngEngine; there is no global random state, so any experiment is exactly
 * reproducible from its seed.
 */

#include <cstdint>
#include <random>
#include <vector>

namespace baco {

/** A seeded random engine with the helpers used across the library. */
class RngEngine {
 public:
  explicit RngEngine(std::uint64_t seed = 0) : gen_(seed) {}

  /** Re-seed the engine. */
  void seed(std::uint64_t s) { gen_.seed(s); }

  /** Uniform real in [lo, hi). */
  double uniform(double lo = 0.0, double hi = 1.0);

  /** Uniform integer in [lo, hi] (inclusive). */
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /** Standard normal (mean 0, stddev 1) scaled to (mean, stddev). */
  double normal(double mean = 0.0, double stddev = 1.0);

  /** Log-normal multiplicative noise factor: exp(N(0, sigma)). */
  double lognormal_factor(double sigma);

  /** Bernoulli draw with success probability p. */
  bool bernoulli(double p);

  /** Uniform index in [0, n). Requires n > 0. */
  std::size_t index(std::size_t n);

  /** A uniformly random permutation of {0, ..., n-1}. */
  std::vector<int> permutation(int n);

  /** Fisher-Yates shuffle of a vector in place. */
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = index(i);
      std::swap(v[i - 1], v[j]);
    }
  }

  /** Sample k distinct indices from [0, n) without replacement. */
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

  /** Access the underlying engine (for std distributions). */
  std::mt19937_64& engine() { return gen_; }
  const std::mt19937_64& engine() const { return gen_; }

  /** Derive an independent engine (for splitting streams across workers). */
  RngEngine split();

 private:
  std::mt19937_64 gen_;
};

}  // namespace baco

#endif  // BACO_LINALG_RNG_HPP_
