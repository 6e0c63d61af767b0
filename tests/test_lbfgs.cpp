// L-BFGS convergence on standard problems, and bit-identity with the
// search as written before objectives were split into value and gradient.

#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <functional>
#include <limits>
#include <memory>

#include "gp/lbfgs.hpp"
#include "linalg/matrix.hpp"

namespace baco {
namespace {

/** f(x), with its gradient written to grad: how the problems below are
 *  stated. */
using Combined =
    std::function<double(const std::vector<double>& x,
                         std::vector<double>& grad)>;

/** The split form of f: value() evaluates f at x and remembers x;
 *  gradient() evaluates f again there. */
SplitObjectiveFn
split(Combined f)
{
    auto last = std::make_shared<std::vector<double>>();
    return SplitObjectiveFn{
        [f, last](const std::vector<double>& x) {
            *last = x;
            std::vector<double> g(x.size());
            return f(x, g);
        },
        [f, last](std::vector<double>& g) {
            g.assign(last->size(), 0.0);
            f(*last, g);
        }};
}

double
inf_norm(const std::vector<double>& v)
{
    double m = 0.0;
    for (double x : v)
        m = std::max(m, std::abs(x));
    return m;
}

/** lbfgs_minimize() as written for a combined objective, which computed
 *  a gradient at every line-search trial, rejected or not. */
LbfgsResult
reference_lbfgs(const Combined& f, std::vector<double> x0,
                const LbfgsOptions& opt)
{
    std::size_t n = x0.size();
    LbfgsResult res;
    res.x = std::move(x0);

    std::vector<double> grad(n, 0.0);
    double fx = f(res.x, grad);
    if (!std::isfinite(fx)) {
        res.f = fx;
        return res;
    }

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

        std::vector<double> q = grad;
        std::vector<double> alpha(pairs.size());
        for (std::size_t i = pairs.size(); i-- > 0;) {
            alpha[i] = pairs[i].rho * dot(pairs[i].s, q);
            q = axpy(q, -alpha[i], pairs[i].y);
        }
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
            pairs.clear();
            for (std::size_t i = 0; i < n; ++i)
                dir[i] = -grad[i];
            descent = dot(grad, dir);
            if (descent >= 0.0)
                break;
        }

        const double c1 = 1e-4;
        const double c2 = 0.9;
        std::vector<double> x_new(n), grad_new(n);
        double f_new = fx;
        bool accepted = false;
        auto line_search = [&]() {
            double step = opt.init_step;
            double lo = 0.0;
            double hi = std::numeric_limits<double>::infinity();
            double armijo_step = -1.0, armijo_f = fx;
            std::vector<double> armijo_x, armijo_g;
            for (int ls = 0; ls < opt.max_line_search; ++ls) {
                for (std::size_t i = 0; i < n; ++i)
                    x_new[i] = res.x[i] + step * dir[i];
                f_new = f(x_new, grad_new);
                if (!std::isfinite(f_new) ||
                    f_new > fx + c1 * step * descent) {
                    hi = step;
                    step = 0.5 * (lo + hi);
                    continue;
                }
                if (armijo_step < 0.0 || f_new < armijo_f) {
                    armijo_step = step;
                    armijo_f = f_new;
                    armijo_x = x_new;
                    armijo_g = grad_new;
                }
                if (dot(grad_new, dir) < c2 * descent) {
                    lo = step;
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
            pairs.clear();
            double gnorm = std::max(1.0, inf_norm(grad));
            for (std::size_t i = 0; i < n; ++i)
                dir[i] = -grad[i] / gnorm;
            descent = dot(grad, dir);
            accepted = line_search();
        }
        if (!accepted)
            break;

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

TEST(Lbfgs, QuadraticBowl)
{
    // f(x) = sum (x_i - i)^2.
    Combined f = [](const std::vector<double>& x, std::vector<double>& g) {
        double v = 0.0;
        for (std::size_t i = 0; i < x.size(); ++i) {
            double d = x[i] - static_cast<double>(i);
            v += d * d;
            g[i] = 2.0 * d;
        }
        return v;
    };
    LbfgsResult r = lbfgs_minimize(split(f), {10.0, -5.0, 3.0});
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.x[0], 0.0, 1e-4);
    EXPECT_NEAR(r.x[1], 1.0, 1e-4);
    EXPECT_NEAR(r.x[2], 2.0, 1e-4);
    EXPECT_NEAR(r.f, 0.0, 1e-8);
}

TEST(Lbfgs, Rosenbrock2d)
{
    Combined f = [](const std::vector<double>& x, std::vector<double>& g) {
        double a = 1.0 - x[0];
        double b = x[1] - x[0] * x[0];
        g[0] = -2.0 * a - 400.0 * x[0] * b;
        g[1] = 200.0 * b;
        return a * a + 100.0 * b * b;
    };
    LbfgsOptions opt;
    opt.max_iters = 300;
    LbfgsResult r = lbfgs_minimize(split(f), {-1.2, 1.0}, opt);
    EXPECT_NEAR(r.x[0], 1.0, 1e-3);
    EXPECT_NEAR(r.x[1], 1.0, 1e-3);
}

TEST(Lbfgs, IllConditionedQuadratic)
{
    // Condition number 1e4.
    Combined f = [](const std::vector<double>& x, std::vector<double>& g) {
        g[0] = 2.0 * x[0];
        g[1] = 2.0e4 * x[1];
        return x[0] * x[0] + 1.0e4 * x[1] * x[1];
    };
    LbfgsOptions opt;
    opt.max_iters = 200;
    LbfgsResult r = lbfgs_minimize(split(f), {5.0, 5.0}, opt);
    EXPECT_NEAR(r.f, 0.0, 1e-5);
}

TEST(Lbfgs, HandlesNonFiniteRegionsViaBacktracking)
{
    // f = -log(x) + x, defined for x > 0 only; minimum at x = 1.
    Combined f = [](const std::vector<double>& x, std::vector<double>& g) {
        if (x[0] <= 0.0) {
            g[0] = 0.0;
            return std::numeric_limits<double>::infinity();
        }
        g[0] = -1.0 / x[0] + 1.0;
        return -std::log(x[0]) + x[0];
    };
    LbfgsResult r = lbfgs_minimize(split(f), {0.1});
    EXPECT_NEAR(r.x[0], 1.0, 1e-3);
}

TEST(Lbfgs, AlreadyAtOptimumStopsImmediately)
{
    Combined f = [](const std::vector<double>& x, std::vector<double>& g) {
        g[0] = 2.0 * x[0];
        return x[0] * x[0];
    };
    LbfgsResult r = lbfgs_minimize(split(f), {0.0});
    EXPECT_TRUE(r.converged);
    EXPECT_LE(r.iterations, 1);
}

TEST(Lbfgs, RespectsIterationBudget)
{
    Combined f = [](const std::vector<double>& x, std::vector<double>& g) {
        double a = 1.0 - x[0];
        double b = x[1] - x[0] * x[0];
        g[0] = -2.0 * a - 400.0 * x[0] * b;
        g[1] = 200.0 * b;
        return a * a + 100.0 * b * b;
    };
    LbfgsOptions opt;
    opt.max_iters = 3;
    LbfgsResult r = lbfgs_minimize(split(f), {-1.2, 1.0}, opt);
    EXPECT_LE(r.iterations, 3);
}

Combined
rosenbrock()
{
    return [](const std::vector<double>& x, std::vector<double>& g) {
        double a = 1.0 - x[0];
        double b = x[1] - x[0] * x[0];
        g[0] = -2.0 * a - 400.0 * x[0] * b;
        g[1] = 200.0 * b;
        return a * a + 100.0 * b * b;
    };
}

TEST(Lbfgs, SplitObjectiveMatchesCombinedReference)
{
    struct Case {
      const char* name;
      Combined f;
      std::vector<double> x0;
      LbfgsOptions opt;
    };
    LbfgsOptions long_run;
    long_run.max_iters = 300;
    LbfgsOptions short_steps;
    short_steps.init_step = 0.05;
    short_steps.max_line_search = 4;
    short_steps.f_tol = 1e-10;
    std::vector<Case> cases = {
        {"rosenbrock", rosenbrock(), {-1.2, 1.0}, long_run},
        {"rosenbrock, tight line search", rosenbrock(), {-1.2, 1.0},
         short_steps},
        {"ill-conditioned",
         [](const std::vector<double>& x, std::vector<double>& g) {
             g[0] = 2.0 * x[0];
             g[1] = 2.0e4 * x[1];
             return x[0] * x[0] + 1.0e4 * x[1] * x[1];
         },
         {5.0, 5.0}, long_run},
        {"non-finite region",
         [](const std::vector<double>& x, std::vector<double>& g) {
             if (x[0] <= 0.0) {
                 g[0] = 0.0;
                 return std::numeric_limits<double>::infinity();
             }
             g[0] = -1.0 / x[0] + 1.0;
             return -std::log(x[0]) + x[0];
         },
         {0.1}, LbfgsOptions{}},
        {"nonconvex",
         [](const std::vector<double>& x, std::vector<double>& g) {
             double v = 0.0;
             for (std::size_t i = 0; i < x.size(); ++i) {
                 v += std::sin(3.0 * x[i]) + 0.1 * x[i] * x[i];
                 g[i] = 3.0 * std::cos(3.0 * x[i]) + 0.2 * x[i];
             }
             return v;
         },
         {2.0, -1.5, 0.3, 4.0}, long_run},
    };
    for (const Case& c : cases) {
        int values = 0;
        int gradients = 0;
        SplitObjectiveFn s = split(c.f);
        SplitObjectiveFn counted{
            [&](const std::vector<double>& x) {
                ++values;
                return s.value(x);
            },
            [&](std::vector<double>& g) {
                ++gradients;
                s.gradient(g);
            }};
        LbfgsResult got = lbfgs_minimize(counted, c.x0, c.opt);
        LbfgsResult want = reference_lbfgs(c.f, c.x0, c.opt);
        EXPECT_EQ(got.x, want.x) << c.name;
        EXPECT_EQ(got.f, want.f) << c.name;
        EXPECT_EQ(got.iterations, want.iterations) << c.name;
        EXPECT_EQ(got.converged, want.converged) << c.name;
        EXPECT_LE(gradients, values) << c.name;
    }
}

}  // namespace
}  // namespace baco
