#ifndef BACO_GP_LBFGS_HPP_
#define BACO_GP_LBFGS_HPP_

/**
 * @file
 * Limited-memory BFGS (Liu & Nocedal 1989) for GP hyperparameter fitting
 * (paper Sec. 3.2: multistart gradient descent with L-BFGS refinement).
 */

#include <functional>
#include <vector>

namespace baco {

/**
 * Objective as two calls: value(x) returns f(x), and gradient(grad) fills
 * grad (resized as needed) with the gradient at the point of the latest
 * value() call. L-BFGS asks for a gradient only where it uses one — the
 * start point and line-search trials that pass the sufficient-decrease
 * test — so an objective whose gradient costs more than its value (the GP
 * marginal likelihood) skips it at rejected trial steps.
 */
struct SplitObjectiveFn {
  std::function<double(const std::vector<double>& x)> value;
  std::function<void(std::vector<double>& grad)> gradient;
};

/** L-BFGS knobs. */
struct LbfgsOptions {
  int max_iters = 50;       ///< outer iterations
  int history = 8;          ///< stored curvature pairs
  double grad_tol = 1e-5;   ///< stop when ||grad||_inf below this
  /** Stop on relative objective change below this; <= 0 disables the check
   *  (tiny line-search steps in narrow valleys can otherwise stop early). */
  double f_tol = 0.0;
  double init_step = 1.0;   ///< first trial step of each line search
  int max_line_search = 20; ///< backtracking steps
};

/** L-BFGS outcome. */
struct LbfgsResult {
  std::vector<double> x;
  double f = 0.0;
  int iterations = 0;
  bool converged = false;
};

/**
 * Minimize f starting from x0.
 *
 * Uses the two-loop recursion with Armijo backtracking; curvature pairs with
 * non-positive s'y are skipped for stability. Robust to objectives that
 * return non-finite values during line search (the step is shrunk).
 */
LbfgsResult lbfgs_minimize(const SplitObjectiveFn& f, std::vector<double> x0,
                           const LbfgsOptions& opt = LbfgsOptions{});

}  // namespace baco

#endif  // BACO_GP_LBFGS_HPP_
