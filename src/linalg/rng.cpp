#include "linalg/rng.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace baco {

double
RngEngine::uniform(double lo, double hi)
{
    std::uniform_real_distribution<double> dist(lo, hi);
    return dist(gen_);
}

std::int64_t
RngEngine::uniform_int(std::int64_t lo, std::int64_t hi)
{
    std::uniform_int_distribution<std::int64_t> dist(lo, hi);
    return dist(gen_);
}

double
RngEngine::normal(double mean, double stddev)
{
    std::normal_distribution<double> dist(mean, stddev);
    return dist(gen_);
}

double
RngEngine::lognormal_factor(double sigma)
{
    return std::exp(normal(0.0, sigma));
}

bool
RngEngine::bernoulli(double p)
{
    std::bernoulli_distribution dist(p);
    return dist(gen_);
}

std::size_t
RngEngine::index(std::size_t n)
{
    std::uniform_int_distribution<std::size_t> dist(0, n - 1);
    return dist(gen_);
}

std::vector<int>
RngEngine::permutation(int n)
{
    std::vector<int> p(static_cast<std::size_t>(n));
    std::iota(p.begin(), p.end(), 0);
    shuffle(p);
    return p;
}

std::vector<std::size_t>
RngEngine::sample_without_replacement(std::size_t n, std::size_t k)
{
    // Partial Fisher-Yates: O(n) memory, O(k) swaps.
    std::vector<std::size_t> idx(n);
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    if (k > n)
        k = n;
    for (std::size_t i = 0; i < k; ++i) {
        std::size_t j = i + index(n - i);
        std::swap(idx[i], idx[j]);
    }
    idx.resize(k);
    return idx;
}

RngEngine
RngEngine::split()
{
    std::uint64_t s = gen_();
    return RngEngine(s ^ 0x9e3779b97f4a7c15ULL);
}

}  // namespace baco
