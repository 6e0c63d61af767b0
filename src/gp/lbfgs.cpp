#include "gp/lbfgs.hpp"

#include <cmath>
#include <deque>
#include <limits>

#include "linalg/matrix.hpp"

namespace baco {

namespace {

double
inf_norm(const std::vector<double>& v)
{
    double m = 0.0;
    for (double x : v)
        m = std::max(m, std::abs(x));
    return m;
}

}  // namespace

LbfgsResult
lbfgs_minimize(const SplitObjectiveFn& f, std::vector<double> x0,
               const LbfgsOptions& opt)
{
    std::size_t n = x0.size();
    LbfgsResult res;
    res.x = std::move(x0);

    std::vector<double> grad(n, 0.0);
    double fx = f.value(res.x);
    if (!std::isfinite(fx)) {
        res.f = fx;
        return res;
    }
    f.gradient(grad);

    struct Pair {
      std::vector<double> s, y;
      double rho;
    };
    std::deque<Pair> pairs;

    for (int iter = 0; iter < opt.max_iters; ++iter) {
        res.iterations = iter + 1;
        if (inf_norm(grad) < opt.grad_tol) {
            res.converged = true;
            break;
        }

        // Two-loop recursion for the search direction d = -H grad.
        std::vector<double> q = grad;
        std::vector<double> alpha(pairs.size());
        for (std::size_t i = pairs.size(); i-- > 0;) {
            alpha[i] = pairs[i].rho * dot(pairs[i].s, q);
            q = axpy(q, -alpha[i], pairs[i].y);
        }
        // Initial Hessian scaling gamma = s'y / y'y of the newest pair.
        double gamma = 1.0;
        if (!pairs.empty()) {
            const Pair& p = pairs.back();
            double yy = dot(p.y, p.y);
            if (yy > 0.0)
                gamma = dot(p.s, p.y) / yy;
        }
        for (double& v : q)
            v *= gamma;
        for (std::size_t i = 0; i < pairs.size(); ++i) {
            double beta = pairs[i].rho * dot(pairs[i].y, q);
            q = axpy(q, alpha[i] - beta, pairs[i].s);
        }
        std::vector<double> dir(n);
        for (std::size_t i = 0; i < n; ++i)
            dir[i] = -q[i];

        double descent = dot(grad, dir);
        if (descent >= 0.0) {
            // Not a descent direction (numerical trouble): reset to -grad.
            pairs.clear();
            for (std::size_t i = 0; i < n; ++i)
                dir[i] = -grad[i];
            descent = dot(grad, dir);
            if (descent >= 0.0)
                break;
        }

        // Weak-Wolfe line search with bracketing: the Armijo condition
        // rejects overlong steps, the curvature condition rejects steps so
        // short that the direction scale collapses (which stalls L-BFGS in
        // curved valleys like Rosenbrock's).
        const double c1 = 1e-4;
        const double c2 = 0.9;
        std::vector<double> x_new(n), grad_new(n);
        double f_new = fx;
        bool accepted = false;
        auto line_search = [&]() {
            double step = opt.init_step;
            double lo = 0.0;
            double hi = std::numeric_limits<double>::infinity();
            // Best Armijo-satisfying point seen, in case the curvature
            // condition is never met within the budget.
            double armijo_step = -1.0, armijo_f = fx;
            std::vector<double> armijo_x, armijo_g;
            for (int ls = 0; ls < opt.max_line_search; ++ls) {
                for (std::size_t i = 0; i < n; ++i)
                    x_new[i] = res.x[i] + step * dir[i];
                f_new = f.value(x_new);
                if (!std::isfinite(f_new) ||
                    f_new > fx + c1 * step * descent) {
                    hi = step;  // too long
                    step = 0.5 * (lo + hi);
                    continue;
                }
                f.gradient(grad_new);
                if (armijo_step < 0.0 || f_new < armijo_f) {
                    armijo_step = step;
                    armijo_f = f_new;
                    armijo_x = x_new;
                    armijo_g = grad_new;
                }
                if (dot(grad_new, dir) < c2 * descent) {
                    lo = step;  // too short: slope still strongly negative
                    step = std::isinf(hi) ? 2.0 * step : 0.5 * (lo + hi);
                    continue;
                }
                return true;
            }
            if (armijo_step >= 0.0) {
                x_new = std::move(armijo_x);
                grad_new = std::move(armijo_g);
                f_new = armijo_f;
                return true;
            }
            return false;
        };
        accepted = line_search();
        if (!accepted && !pairs.empty()) {
            // Stale curvature can produce a direction the line search cannot
            // use; restart from steepest descent before giving up.
            pairs.clear();
            double gnorm = std::max(1.0, inf_norm(grad));
            for (std::size_t i = 0; i < n; ++i)
                dir[i] = -grad[i] / gnorm;
            descent = dot(grad, dir);
            accepted = line_search();
        }
        if (!accepted)
            break;

        // Curvature update.
        Pair p;
        p.s.resize(n);
        p.y.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            p.s[i] = x_new[i] - res.x[i];
            p.y[i] = grad_new[i] - grad[i];
        }
        double sy = dot(p.s, p.y);
        if (sy > 1e-12) {
            p.rho = 1.0 / sy;
            pairs.push_back(std::move(p));
            if (static_cast<int>(pairs.size()) > opt.history)
                pairs.pop_front();
        }

        double f_change = std::abs(fx - f_new) /
                          std::max(1.0, std::abs(fx));
        res.x = std::move(x_new);
        x_new.assign(n, 0.0);
        grad = grad_new;
        fx = f_new;
        if (opt.f_tol > 0.0 && f_change < opt.f_tol) {
            res.converged = true;
            break;
        }
    }

    res.f = fx;
    return res;
}

}  // namespace baco
