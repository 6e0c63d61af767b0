#include "core/parameter.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <functional>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace baco {

// ---------------------------------------------------------------------------
// types.hpp helpers
// ---------------------------------------------------------------------------

bool
param_value_equal(const ParamValue& a, const ParamValue& b)
{
    if (a.index() != b.index())
        return false;
    if (std::holds_alternative<double>(a))
        return std::get<double>(a) == std::get<double>(b);
    if (std::holds_alternative<std::int64_t>(a))
        return std::get<std::int64_t>(a) == std::get<std::int64_t>(b);
    return std::get<Permutation>(a) == std::get<Permutation>(b);
}

bool
configs_equal(const Configuration& a, const Configuration& b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (!param_value_equal(a[i], b[i]))
            return false;
    return true;
}

std::size_t
config_hash(const Configuration& c)
{
    std::size_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::size_t v) {
        h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    };
    for (const ParamValue& v : c) {
        mix(v.index());
        if (std::holds_alternative<double>(v)) {
            mix(std::hash<double>{}(std::get<double>(v)));
        } else if (std::holds_alternative<std::int64_t>(v)) {
            mix(std::hash<std::int64_t>{}(std::get<std::int64_t>(v)));
        } else {
            for (int x : std::get<Permutation>(v))
                mix(std::hash<int>{}(x));
        }
    }
    return h;
}

std::string
param_value_to_string(const ParamValue& v)
{
    std::ostringstream os;
    if (std::holds_alternative<double>(v)) {
        os << std::get<double>(v);
    } else if (std::holds_alternative<std::int64_t>(v)) {
        os << std::get<std::int64_t>(v);
    } else {
        os << "[";
        const Permutation& p = std::get<Permutation>(v);
        for (std::size_t i = 0; i < p.size(); ++i)
            os << (i ? "," : "") << p[i];
        os << "]";
    }
    return os.str();
}

double
as_real(const ParamValue& v)
{
    if (std::holds_alternative<double>(v))
        return std::get<double>(v);
    if (std::holds_alternative<std::int64_t>(v))
        return static_cast<double>(std::get<std::int64_t>(v));
    throw std::runtime_error("as_real: value is a permutation");
}

std::int64_t
as_int(const ParamValue& v)
{
    if (std::holds_alternative<std::int64_t>(v))
        return std::get<std::int64_t>(v);
    if (std::holds_alternative<double>(v))
        return static_cast<std::int64_t>(std::llround(std::get<double>(v)));
    throw std::runtime_error("as_int: value is a permutation");
}

const Permutation&
as_permutation(const ParamValue& v)
{
    return std::get<Permutation>(v);
}

std::string
Parameter::value_to_string(const ParamValue& v) const
{
    return param_value_to_string(v);
}

// ---------------------------------------------------------------------------
// OrderedParameter
// ---------------------------------------------------------------------------

OrderedParameter::OrderedParameter(std::string name, ParamKind kind,
                                   bool log_scale, double lo, double hi)
    : Parameter(std::move(name), kind), log_scale_(log_scale)
{
    origin_ = transform(lo);
    span_ = (lo == hi) ? 1.0 : transform(hi) - origin_;
}

double
OrderedParameter::distance(const ParamValue& a, const ParamValue& b) const
{
    return std::abs(coordinate(a) - coordinate(b)) / span_;
}

void
OrderedParameter::encode(const ParamValue& v, std::vector<double>& out) const
{
    out.push_back((coordinate(v) - origin_) / span_);
}

// ---------------------------------------------------------------------------
// RealParameter
// ---------------------------------------------------------------------------

RealParameter::RealParameter(std::string name, double lo, double hi,
                             bool log_scale)
    : OrderedParameter(std::move(name), ParamKind::kReal, log_scale, lo, hi),
      lo_(lo), hi_(hi)
{
    assert(lo < hi);
    if (log_scale)
        assert(lo > 0.0);
}

ParamValue
RealParameter::value_at(std::size_t) const
{
    throw std::runtime_error("RealParameter has no enumerable values");
}

ParamValue
RealParameter::sample(RngEngine& rng) const
{
    if (log_scale())
        return std::exp(rng.uniform(std::log(lo_), std::log(hi_)));
    return rng.uniform(lo_, hi_);
}

std::vector<ParamValue>
RealParameter::neighbors(const ParamValue& v, RngEngine& rng) const
{
    // Gaussian perturbations in (transformed) space at two scales.
    double t = coordinate(v);
    std::vector<ParamValue> out;
    for (double frac : {0.02, 0.1}) {
        for (int k = 0; k < 2; ++k) {
            double cand = t + rng.normal(0.0, frac * coordinate_span());
            cand = std::clamp(cand, transform(lo_), transform(hi_));
            out.push_back(log_scale() ? std::exp(cand) : cand);
        }
    }
    return out;
}

double
RealParameter::coordinate(const ParamValue& v) const
{
    return transform(as_real(v));
}

double
RealParameter::numeric_value(const ParamValue& v) const
{
    return as_real(v);
}

// ---------------------------------------------------------------------------
// IntegerParameter
// ---------------------------------------------------------------------------

IntegerParameter::IntegerParameter(std::string name, std::int64_t lo,
                                   std::int64_t hi, bool log_scale)
    : OrderedParameter(std::move(name), ParamKind::kInteger, log_scale,
                       static_cast<double>(lo), static_cast<double>(hi)),
      lo_(lo), hi_(hi)
{
    assert(lo <= hi);
    if (log_scale)
        assert(lo > 0);
}

std::size_t
IntegerParameter::num_values() const
{
    return static_cast<std::size_t>(hi_ - lo_ + 1);
}

ParamValue
IntegerParameter::value_at(std::size_t i) const
{
    assert(i < num_values());
    return lo_ + static_cast<std::int64_t>(i);
}

std::size_t
IntegerParameter::index_of(const ParamValue& v) const
{
    std::int64_t x = as_int(v);
    if (x < lo_ || x > hi_)
        return num_values();
    return static_cast<std::size_t>(x - lo_);
}

ParamValue
IntegerParameter::sample(RngEngine& rng) const
{
    return rng.uniform_int(lo_, hi_);
}

std::vector<ParamValue>
IntegerParameter::neighbors(const ParamValue& v, RngEngine&) const
{
    std::int64_t x = as_int(v);
    std::vector<ParamValue> out;
    if (x > lo_)
        out.push_back(x - 1);
    if (x < hi_)
        out.push_back(x + 1);
    return out;
}

double
IntegerParameter::coordinate(const ParamValue& v) const
{
    return transform(static_cast<double>(as_int(v)));
}

double
IntegerParameter::numeric_value(const ParamValue& v) const
{
    return static_cast<double>(as_int(v));
}

// ---------------------------------------------------------------------------
// OrdinalParameter
// ---------------------------------------------------------------------------

OrdinalParameter::OrdinalParameter(std::string name,
                                   std::vector<std::int64_t> values,
                                   bool log_scale)
    : OrderedParameter(std::move(name), ParamKind::kOrdinal, log_scale,
                       static_cast<double>(values.front()),
                       static_cast<double>(values.back())),
      values_(std::move(values))
{
    assert(std::is_sorted(values_.begin(), values_.end()));
    if (log_scale)
        assert(values_.front() > 0);
}

ParamValue
OrdinalParameter::value_at(std::size_t i) const
{
    assert(i < values_.size());
    return values_[i];
}

std::size_t
OrdinalParameter::index_of(const ParamValue& v) const
{
    std::int64_t x = as_int(v);
    auto it = std::lower_bound(values_.begin(), values_.end(), x);
    if (it == values_.end() || *it != x)
        return values_.size();
    return static_cast<std::size_t>(it - values_.begin());
}

ParamValue
OrdinalParameter::sample(RngEngine& rng) const
{
    return values_[rng.index(values_.size())];
}

std::vector<ParamValue>
OrdinalParameter::neighbors(const ParamValue& v, RngEngine&) const
{
    std::size_t i = index_of(v);
    assert(i < values_.size());
    std::vector<ParamValue> out;
    if (i > 0)
        out.push_back(values_[i - 1]);
    if (i + 1 < values_.size())
        out.push_back(values_[i + 1]);
    return out;
}

double
OrdinalParameter::coordinate(const ParamValue& v) const
{
    return transform(static_cast<double>(as_int(v)));
}

double
OrdinalParameter::numeric_value(const ParamValue& v) const
{
    return static_cast<double>(as_int(v));
}

// ---------------------------------------------------------------------------
// CategoricalParameter
// ---------------------------------------------------------------------------

CategoricalParameter::CategoricalParameter(std::string name,
                                           std::vector<std::string> categories)
    : Parameter(std::move(name), ParamKind::kCategorical),
      categories_(std::move(categories))
{
    assert(!categories_.empty());
}

ParamValue
CategoricalParameter::value_at(std::size_t i) const
{
    assert(i < categories_.size());
    return static_cast<std::int64_t>(i);
}

std::size_t
CategoricalParameter::index_of(const ParamValue& v) const
{
    std::int64_t x = as_int(v);
    if (x < 0 || x >= static_cast<std::int64_t>(categories_.size()))
        return categories_.size();
    return static_cast<std::size_t>(x);
}

ParamValue
CategoricalParameter::sample(RngEngine& rng) const
{
    return static_cast<std::int64_t>(rng.index(categories_.size()));
}

std::vector<ParamValue>
CategoricalParameter::neighbors(const ParamValue& v, RngEngine&) const
{
    std::int64_t cur = as_int(v);
    std::vector<ParamValue> out;
    for (std::size_t i = 0; i < categories_.size(); ++i)
        if (static_cast<std::int64_t>(i) != cur)
            out.push_back(static_cast<std::int64_t>(i));
    return out;
}

double
CategoricalParameter::distance(const ParamValue& a, const ParamValue& b) const
{
    return (as_int(a) == as_int(b)) ? 0.0 : 1.0;
}

double
CategoricalParameter::numeric_value(const ParamValue& v) const
{
    return static_cast<double>(as_int(v));
}

void
CategoricalParameter::encode(const ParamValue& v, std::vector<double>& out) const
{
    std::int64_t idx = as_int(v);
    for (std::size_t i = 0; i < categories_.size(); ++i)
        out.push_back(static_cast<std::int64_t>(i) == idx ? 1.0 : 0.0);
}

std::string
CategoricalParameter::value_to_string(const ParamValue& v) const
{
    std::size_t i = index_of(v);
    return i < categories_.size() ? categories_[i] : "<invalid>";
}

// ---------------------------------------------------------------------------
// PermutationParameter
// ---------------------------------------------------------------------------

namespace {

std::size_t
factorial(int m)
{
    std::size_t f = 1;
    for (int i = 2; i <= m; ++i)
        f *= static_cast<std::size_t>(i);
    return f;
}

/** i-th permutation of {0..m-1} in lexicographic order (Lehmer decode). */
Permutation
nth_permutation(int m, std::size_t idx)
{
    std::vector<int> pool(static_cast<std::size_t>(m));
    std::iota(pool.begin(), pool.end(), 0);
    Permutation out;
    out.reserve(static_cast<std::size_t>(m));
    std::size_t f = factorial(m);
    for (int i = m; i >= 1; --i) {
        f /= static_cast<std::size_t>(i);
        std::size_t q = idx / f;
        idx %= f;
        out.push_back(pool[q]);
        pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(q));
    }
    return out;
}

/**
 * Lexicographic rank of a permutation (Lehmer encode): digit i counts the
 * later elements smaller than p[i] and has weight (m-1-i)!, accumulated in
 * Horner form. Runs once per GP prediction, so it does not allocate.
 */
std::size_t
permutation_rank(const Permutation& p)
{
    std::size_t m = p.size();
    std::size_t rank = 0;
    for (std::size_t i = 0; i < m; ++i) {
        std::size_t smaller = 0;
        for (std::size_t j = i + 1; j < m; ++j)
            smaller += p[j] < p[i] ? 1 : 0;
        rank = rank * (m - i) + smaller;
    }
    return rank;
}

/** Whether p holds each of 0..size-1 exactly once (size <= 64). */
bool
is_valid_permutation(const Permutation& p)
{
    std::uint64_t seen = 0;
    for (int x : p) {
        if (x < 0 || x >= static_cast<int>(p.size()) || ((seen >> x) & 1u))
            return false;
        seen |= std::uint64_t{1} << x;
    }
    return true;
}

}  // namespace

PermutationParameter::PermutationParameter(std::string name, int m,
                                           PermutationMetric metric,
                                           PermutationForm form)
    : Parameter(std::move(name), ParamKind::kPermutation),
      m_(m), metric_(metric), form_(form), factorial_(factorial(m))
{
    assert(m >= 1 && m <= 8 && "permutation enumeration limited to m <= 8");
}

std::size_t
PermutationParameter::num_values() const
{
    return factorial_;
}

ParamValue
PermutationParameter::value_at(std::size_t i) const
{
    assert(i < factorial_);
    return nth_permutation(m_, i);
}

std::size_t
PermutationParameter::index_of(const ParamValue& v) const
{
    const Permutation& p = as_permutation(v);
    if (static_cast<int>(p.size()) != m_ || !is_valid_permutation(p))
        return factorial_;
    return permutation_rank(p);
}

ParamValue
PermutationParameter::sample(RngEngine& rng) const
{
    return rng.permutation(m_);
}

std::vector<ParamValue>
PermutationParameter::neighbors(const ParamValue& v, RngEngine& rng) const
{
    const Permutation& p = as_permutation(v);
    std::vector<ParamValue> out;
    // All adjacent transpositions...
    for (int i = 0; i + 1 < m_; ++i) {
        Permutation q = p;
        std::swap(q[static_cast<std::size_t>(i)],
                  q[static_cast<std::size_t>(i) + 1]);
        out.push_back(std::move(q));
    }
    // ...plus two random non-adjacent swaps for longer-range moves.
    for (int k = 0; k < 2 && m_ > 2; ++k) {
        std::size_t i = rng.index(static_cast<std::size_t>(m_));
        std::size_t j = rng.index(static_cast<std::size_t>(m_));
        if (i == j)
            continue;
        Permutation q = p;
        std::swap(q[i], q[j]);
        out.push_back(std::move(q));
    }
    return out;
}

double
PermutationParameter::distance(const ParamValue& a, const ParamValue& b) const
{
    double d =
        permutation_distance(as_permutation(a), as_permutation(b), metric_);
    return form_ == PermutationForm::kEuclidean ? std::sqrt(d) : d;
}

double
PermutationParameter::numeric_value(const ParamValue&) const
{
    throw std::runtime_error(
        "permutation parameter '" + name() +
        "' cannot appear in a scalar constraint expression");
}

void
PermutationParameter::encode(const ParamValue& v, std::vector<double>& out) const
{
    const Permutation& p = as_permutation(v);
    double denom = std::max(1, m_ - 1);
    for (int x : p)
        out.push_back(static_cast<double>(x) / denom);
}

}  // namespace baco
