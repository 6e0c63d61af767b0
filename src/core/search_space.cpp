#include "core/search_space.hpp"

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace baco {

std::size_t
SearchSpace::add_param(std::unique_ptr<Parameter> p)
{
    if (by_name_.count(p->name()))
        throw std::runtime_error("duplicate parameter name '" + p->name() + "'");
    std::size_t idx = params_.size();
    by_name_[p->name()] = idx;
    params_.push_back(std::move(p));
    return idx;
}

std::size_t
SearchSpace::add_real(const std::string& name, double lo, double hi,
                      bool log_scale)
{
    return add_param(std::make_unique<RealParameter>(name, lo, hi, log_scale));
}

std::size_t
SearchSpace::add_integer(const std::string& name, std::int64_t lo,
                         std::int64_t hi, bool log_scale)
{
    return add_param(
        std::make_unique<IntegerParameter>(name, lo, hi, log_scale));
}

std::size_t
SearchSpace::add_ordinal(const std::string& name,
                         std::vector<std::int64_t> values, bool log_scale)
{
    return add_param(
        std::make_unique<OrdinalParameter>(name, std::move(values), log_scale));
}

std::size_t
SearchSpace::add_categorical(const std::string& name,
                             std::vector<std::string> categories)
{
    return add_param(
        std::make_unique<CategoricalParameter>(name, std::move(categories)));
}

std::size_t
SearchSpace::add_permutation(const std::string& name, int m,
                             PermutationMetric metric, PermutationForm form)
{
    return add_param(
        std::make_unique<PermutationParameter>(name, m, metric, form));
}

void
SearchSpace::add_constraint(const std::string& expr)
{
    Constraint c = Constraint::from_expression(expr);
    for (const std::string& v : c.vars()) {
        if (!has_param(v))
            throw std::runtime_error("constraint '" + expr +
                                     "' references unknown parameter '" + v +
                                     "'");
    }
    constraints_.push_back(std::move(c));
}

void
SearchSpace::add_constraint(std::function<bool(const Configuration&)> fn,
                            std::vector<std::string> vars, std::string label)
{
    for (const std::string& v : vars) {
        if (!has_param(v))
            throw std::runtime_error("functional constraint references "
                                     "unknown parameter '" + v + "'");
    }
    constraints_.push_back(Constraint::from_function(std::move(fn),
                                                     std::move(vars),
                                                     std::move(label)));
}

std::size_t
SearchSpace::index_of(const std::string& name) const
{
    auto it = by_name_.find(name);
    if (it == by_name_.end())
        throw std::runtime_error("unknown parameter '" + name + "'");
    return it->second;
}

bool
SearchSpace::has_param(const std::string& name) const
{
    return by_name_.count(name) > 0;
}

EvalContext
SearchSpace::make_context(const Configuration& c) const
{
    EvalContext ctx;
    ctx.reserve(params_.size());
    for (std::size_t i = 0; i < params_.size(); ++i) {
        if (params_[i]->kind() == ParamKind::kPermutation)
            continue;
        ctx[params_[i]->name()] = params_[i]->numeric_value(c[i]);
    }
    return ctx;
}

bool
SearchSpace::satisfies(const Configuration& c) const
{
    if (constraints_.empty())
        return true;
    // Build the scalar context lazily: only when an expression constraint
    // exists.
    std::optional<EvalContext> ctx;
    for (const Constraint& k : constraints_) {
        if (k.is_expression()) {
            if (!ctx)
                ctx = make_context(c);
            if (!k.eval_expression(*ctx))
                return false;
        } else {
            if (!k.eval_function(c))
                return false;
        }
    }
    return true;
}

Configuration
SearchSpace::sample_unconstrained(RngEngine& rng) const
{
    Configuration c;
    c.reserve(params_.size());
    for (const auto& p : params_)
        c.push_back(p->sample(rng));
    return c;
}

std::optional<Configuration>
SearchSpace::sample_feasible(RngEngine& rng, int max_tries) const
{
    for (int t = 0; t < max_tries; ++t) {
        Configuration c = sample_unconstrained(rng);
        if (satisfies(c))
            return c;
    }
    return std::nullopt;
}

std::vector<Configuration>
SearchSpace::neighbors(const Configuration& c, RngEngine& rng) const
{
    std::vector<Configuration> out;
    for (std::size_t i = 0; i < params_.size(); ++i) {
        for (ParamValue& v : params_[i]->neighbors(c[i], rng)) {
            Configuration n = c;
            n[i] = std::move(v);
            out.push_back(std::move(n));
        }
    }
    return out;
}

std::vector<double>
SearchSpace::encode(const Configuration& c) const
{
    std::vector<double> out;
    out.reserve(num_features());
    for (std::size_t i = 0; i < params_.size(); ++i)
        params_[i]->encode(c[i], out);
    return out;
}

std::size_t
SearchSpace::num_features() const
{
    std::size_t n = 0;
    for (const auto& p : params_)
        n += p->num_features();
    return n;
}

double
SearchSpace::dim_distance(std::size_t dim, const Configuration& a,
                          const Configuration& b) const
{
    return params_[dim]->distance(a[dim], b[dim]);
}

std::string
SearchSpace::config_to_string(const Configuration& c) const
{
    std::ostringstream os;
    for (std::size_t i = 0; i < params_.size(); ++i) {
        if (i)
            os << ", ";
        os << params_[i]->name() << "=" << params_[i]->value_to_string(c[i]);
    }
    return os.str();
}

double
SearchSpace::dense_size() const
{
    double size = 1.0;
    for (const auto& p : params_) {
        if (!p->is_discrete())
            return std::numeric_limits<double>::infinity();
        size *= static_cast<double>(p->num_values());
    }
    return size;
}

bool
SearchSpace::is_fully_discrete() const
{
    for (const auto& p : params_)
        if (!p->is_discrete())
            return false;
    return true;
}

}  // namespace baco
