#ifndef BACO_CORE_ACQUISITION_HPP_
#define BACO_CORE_ACQUISITION_HPP_

/**
 * @file
 * Expected Improvement acquisition (paper Sec. 3.3) and its composition
 * with the probability of feasibility (Sec. 4.2).
 *
 * The EI here is the paper's modified, noise-free variant: it is computed
 * from the *latent* predictive distribution (no observation noise), which
 * discourages re-sampling already-measured good points in noisy discrete
 * spaces.
 */

namespace baco {

/**
 * Expected improvement of a minimization objective at a point with latent
 * predictive mean/variance, against incumbent best.
 *
 * EI = (best - mean) * Phi(z) + sigma * phi(z),  z = (best - mean) / sigma.
 * Returns 0 for degenerate variance when mean >= best.
 */
double expected_improvement(double mean, double var, double best);

/**
 * Feasibility-weighted EI: EI * p_feasible, with the minimum-feasibility
 * threshold eps_f (Sec. 4.2): candidates with p_feasible < eps_f are
 * rejected outright (returns -1 so any admissible point wins).
 */
double constrained_ei(double mean, double var, double best,
                      double p_feasible, double eps_f);

/**
 * Whether constrained_ei(mean, var, best, p_feasible, eps_f) is below
 * floor for every var <= var_upper, every p_feasible in [0, 1] and every
 * eps_f: EI grows with the variance, the weight is at most 1, and a
 * rejection scores -1. Conservative: false unless floor >= 1e-100 and
 * EI at var_upper, raised by a relative 1e-6 that dominates the rounding
 * of expected_improvement(), is still below it.
 */
bool ei_below_floor(double mean, double var_upper, double best, double floor);

}  // namespace baco

#endif  // BACO_CORE_ACQUISITION_HPP_
