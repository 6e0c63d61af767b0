#include "hpvm/benchmarks.hpp"

#include <limits>
#include <stdexcept>

#include "hpvm/fpga_model.hpp"

namespace baco::hpvm {

namespace {

/** Per-benchmark space shape. */
struct Shape {
  int n_unroll;       ///< unrollable stages
  int max_exp;        ///< unroll exponents are 0..max_exp
  int n_fuse;         ///< fusion boolean count
  int n_priv;         ///< privatization boolean count
  int budget;         ///< Table 3's Full Budget
  int doe;
};

Shape
shape(const std::string& name)
{
    if (name == "BFS")
        return {2, 7, 1, 1, 20, 5};
    if (name == "Audio")
        return {3, 5, 2, 10, 60, 10};
    if (name == "PreEuler")
        return {3, 9, 2, 2, 60, 10};
    throw std::runtime_error("unknown HPVM benchmark '" + name + "'");
}

std::shared_ptr<SearchSpace>
build_space(const std::string& name, const SpaceVariant& v)
{
    Shape sh = shape(name);
    auto s = std::make_shared<SearchSpace>();
    (void)v;  // exponents are already log-domain; booleans have no scale
    for (int u = 0; u < sh.n_unroll; ++u)
        s->add_integer("unroll_exp" + std::to_string(u), 0, sh.max_exp);
    for (int f = 0; f < sh.n_fuse; ++f)
        s->add_categorical("fuse" + std::to_string(f), {"off", "on"});
    for (int p = 0; p < sh.n_priv; ++p)
        s->add_categorical("privatize" + std::to_string(p), {"off", "on"});
    return s;
}

EstimateResult
evaluate_config(const std::string& name, const Configuration& c)
{
    Shape sh = shape(name);
    std::vector<int> unroll;
    std::vector<bool> fuse, priv;
    std::size_t i = 0;
    for (int u = 0; u < sh.n_unroll; ++u)
        unroll.push_back(static_cast<int>(as_int(c[i++])));
    for (int f = 0; f < sh.n_fuse; ++f)
        fuse.push_back(as_int(c[i++]) == 1);
    for (int p = 0; p < sh.n_priv; ++p)
        priv.push_back(as_int(c[i++]) == 1);
    return estimate(design(name), unroll, fuse, priv);
}

Configuration
make_default(const std::string& name)
{
    Shape sh = shape(name);
    Configuration c;
    for (int u = 0; u < sh.n_unroll; ++u)
        c.push_back(std::int64_t{0});
    for (int f = 0; f < sh.n_fuse + sh.n_priv; ++f)
        c.push_back(std::int64_t{0});
    return c;
}

/**
 * Virtual best via offline random search (reference for Tables 6-8). The
 * paper reports HPVM2FPGA performance relative to the best design its own
 * tuning campaigns found, so the reference is a strong-but-reachable
 * search, not an oracle: 3000 samples (~50x the BFS budget).
 */
double
virtual_best(const std::string& name, const SearchSpace& space)
{
    RngEngine rng(0xF96AULL ^ std::hash<std::string>{}(name));
    double best = std::numeric_limits<double>::infinity();
    for (int i = 0; i < 3000; ++i) {
        Configuration c = space.sample_unconstrained(rng);
        EstimateResult r = evaluate_config(name, c);
        if (r.feasible && r.ms < best)
            best = r.ms;
    }
    return best;
}

}  // namespace

Benchmark
make_hpvm_benchmark(const std::string& name)
{
    Shape sh = shape(name);
    Benchmark b;
    b.framework = "HPVM2FPGA";
    b.name = name;
    b.full_budget = sh.budget;
    b.doe_samples = sh.doe;
    b.make_space = [name](const SpaceVariant& v) {
        return build_space(name, v);
    };
    b.true_cost = [name](const Configuration& c) {
        return evaluate_config(name, c).ms;
    };
    b.hidden_feasible = [name](const Configuration& c) {
        return evaluate_config(name, c).feasible;
    };
    b.evaluate = [name](const Configuration& c, RngEngine& rng) -> EvalResult {
        EstimateResult r = evaluate_config(name, c);
        if (!r.feasible)
            return EvalResult::infeasible();
        // The DSE estimator is deterministic, but timing-model estimates
        // still vary slightly across compilations.
        return EvalResult{r.ms * rng.lognormal_factor(0.01), true};
    };
    b.has_hidden_constraints = true;  // resource/estimator failures
    b.default_config = make_default(name);
    // The paper provides no HPVM2FPGA experts: `expert` stays absent.
    b.reference_cost = Lazy<double>([name] {
        return virtual_best(name, *build_space(name, SpaceVariant{}));
    });
    return b;
}

std::vector<Benchmark>
hpvm_suite()
{
    std::vector<Benchmark> out;
    for (const char* n : {"BFS", "Audio", "PreEuler"})
        out.push_back(make_hpvm_benchmark(n));
    return out;
}

}  // namespace baco::hpvm
