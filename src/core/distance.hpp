#ifndef BACO_CORE_DISTANCE_HPP_
#define BACO_CORE_DISTANCE_HPP_

/**
 * @file
 * Permutation distances used inside the GP kernel (paper Sec. 4.1, Fig. 3).
 *
 * Each count below (Kendall, Spearman, Hamming) is a *squared* Euclidean
 * distance in some embedding of permutations: rank vectors for Spearman,
 * pairwise order signs for Kendall, permutation matrices for Hamming. The
 * paper puts the normalized count itself, a semimetric that violates the
 * triangle inequality, inside its Matérn kernel, and a Matérn kernel over
 * a squared distance is not positive semi-definite. Its square root is a
 * Euclidean distance, so a Matérn kernel over it is positive definite by
 * construction (PermutationForm). All distances returned by the library
 * are normalized to [0, 1] so a single set of lengthscale priors applies
 * to every parameter.
 */

#include "core/types.hpp"

namespace baco {

/** How a permutation parameter measures similarity between two orderings. */
enum class PermutationMetric {
  kKendall,    ///< number of discordant pairs
  kSpearman,   ///< sum of squared rank displacements (BaCO default)
  kHamming,    ///< number of elements not in their original position
  kNaive,      ///< treat the whole permutation as one categorical value
};

/**
 * What the GP kernel sees of a normalized permutation_distance() d.
 * kEuclidean (the default) gives sqrt(d), a Euclidean distance, so every
 * kernel matrix factorizes. kSemimetric gives d itself, as the paper
 * defines it; its kernel matrices can be indefinite and need jitter.
 * kNaive's 0/1 distance is the same in both forms.
 */
enum class PermutationForm {
  kEuclidean,   ///< sqrt of the normalized count: positive-definite kernel
  kSemimetric,  ///< the normalized count itself (paper Sec. 4.1)
};

/** Kendall distance: number of discordant pairs between pi and pi2. */
int kendall_distance(const Permutation& pi, const Permutation& pi2);

/** Spearman's footrule-squared: sum_i (pi_i - pi2_i)^2. */
long long spearman_distance(const Permutation& pi, const Permutation& pi2);

/** Hamming distance: number of positions where pi and pi2 differ. */
int hamming_distance(const Permutation& pi, const Permutation& pi2);

/** Maximum Kendall distance over permutations of m elements: m(m-1)/2. */
long long max_kendall(int m);

/** Maximum Spearman distance over permutations of m elements: (m^3-m)/3. */
long long max_spearman(int m);

/** Maximum Hamming distance over permutations of m elements: m. */
long long max_hamming(int m);

/**
 * Normalized permutation distance in [0, 1] under the given metric.
 * kNaive returns 0 when equal and 1 otherwise.
 */
double permutation_distance(const Permutation& a, const Permutation& b,
                            PermutationMetric metric);

}  // namespace baco

#endif  // BACO_CORE_DISTANCE_HPP_
