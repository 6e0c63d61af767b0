#include "core/acquisition.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/stats.hpp"

namespace baco {

namespace {

// ei_below_floor()'s smallest floor and relative margin. Rounding makes
// expected_improvement() slightly non-monotone in the variance only where
// its two terms cancel (mean well above best): at z = (best - mean) /
// sigma the error is a few units of rounding times z^4, below 1e-9
// relative while |z| <= 30. A computed EI >= 1e-100 needs |z| well under
// 30 for any standard deviation below 1e30, so past kMinFloor the margin
// dominates it with room to spare.
const double kMinFloor = 1e-100;
const double kMargin = 1e-6;

}  // namespace

double
expected_improvement(double mean, double var, double best)
{
    double sigma = std::sqrt(std::max(var, 0.0));
    if (sigma < 1e-12)
        return std::max(best - mean, 0.0);
    double z = (best - mean) / sigma;
    double ei = (best - mean) * normal_cdf(z) + sigma * normal_pdf(z);
    return std::max(ei, 0.0);
}

double
constrained_ei(double mean, double var, double best, double p_feasible,
               double eps_f)
{
    if (p_feasible < eps_f)
        return -1.0;
    return expected_improvement(mean, var, best) * p_feasible;
}

bool
ei_below_floor(double mean, double var_upper, double best, double floor)
{
    if (!(floor >= kMinFloor))  // also rejects a NaN floor
        return false;
    return expected_improvement(mean, var_upper, best) * (1.0 + kMargin) <
           floor;
}

}  // namespace baco
