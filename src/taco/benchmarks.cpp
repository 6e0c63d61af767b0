#include "taco/benchmarks.hpp"

#include <cmath>
#include <limits>

namespace baco::taco {

namespace {

bool
kernel_has_threads_param(TacoKernel k)
{
    return k == TacoKernel::kSpMV || k == TacoKernel::kTTV;
}

std::string
kernel_name(TacoKernel k)
{
    switch (k) {
      case TacoKernel::kSpMV: return "SpMV";
      case TacoKernel::kSpMM: return "SpMM";
      case TacoKernel::kSDDMM: return "SDDMM";
      case TacoKernel::kTTV: return "TTV";
      case TacoKernel::kMTTKRP: return "MTTKRP";
    }
    return "?";
}

int
kernel_budget(TacoKernel k)
{
    // Table 3's Full Budget column.
    switch (k) {
      case TacoKernel::kSpMV: return 70;
      case TacoKernel::kTTV: return 70;
      default: return 60;
    }
}

std::shared_ptr<SearchSpace>
build_space(TacoKernel k, const SpaceVariant& v)
{
    auto space = std::make_shared<SearchSpace>();
    bool lg = v.log_transforms;
    space->add_ordinal("chunk_size",
                       {8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}, lg);
    space->add_ordinal("chunk_size2",
                       {2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}, lg);
    space->add_ordinal("unroll_factor", {1, 2, 4, 8, 16, 32, 64}, lg);
    space->add_categorical("omp_scheduling", {"static", "dynamic"});
    space->add_ordinal("omp_chunk_size", {1, 2, 4, 8, 16, 32, 64, 128, 256},
                       lg);
    if (kernel_has_threads_param(k))
        space->add_ordinal("omp_num_threads", {1, 2, 4, 8, 16, 32, 64, 128},
                           lg);
    int m = kernel_perm_size(k);
    std::size_t perm_idx =
        space->add_permutation("loop_perm", m, v.permutation_metric,
                               v.permutation_form);

    if (k != TacoKernel::kSpMV) {
        space->add_constraint("unroll_factor <= chunk_size2");
        space->add_constraint(
            [k, perm_idx](const Configuration& c) {
                return perm_concordant(k, as_permutation(c[perm_idx]));
            },
            {"loop_perm"}, "concordant(loop_perm)");
    }
    return space;
}

/**
 * Grid used to derive the expert configuration: the best schedule the cost
 * model admits *under the default loop order* (paper Sec. 5.3: TACO experts
 * only considered the default ordering). Coarse on purpose — experts are
 * strong, not exhaustive.
 */
Configuration
derive_expert(TacoKernel k, const TensorProfile& t)
{
    std::vector<std::int64_t> chunks = {8, 16, 32, 64, 128, 256,
                                        512, 1024, 2048, 4096};
    std::vector<std::int64_t> chunk2s = {2, 4, 8, 16, 32, 64, 128, 256, 512,
                                         1024};
    std::vector<std::int64_t> unrolls = {1, 4, 16};
    std::vector<std::int64_t> omp_chunks = {4, 64};
    std::vector<std::int64_t> threads = kernel_has_threads_param(k)
                                            ? std::vector<std::int64_t>{8, 32}
                                            : std::vector<std::int64_t>{32};

    int m = kernel_perm_size(k);
    Permutation identity(static_cast<std::size_t>(m));
    for (int i = 0; i < m; ++i)
        identity[static_cast<std::size_t>(i)] = i;

    double best = std::numeric_limits<double>::infinity();
    TacoSchedule best_s;
    for (std::int64_t c : chunks) {
        for (std::int64_t c2 : chunk2s) {
            for (std::int64_t u : unrolls) {
                if (k != TacoKernel::kSpMV && u > c2)
                    continue;  // known constraint
                for (int dyn = 0; dyn < 2; ++dyn) {
                    for (std::int64_t oc : omp_chunks) {
                        for (std::int64_t th : threads) {
                            TacoSchedule s;
                            s.chunk = static_cast<double>(c);
                            s.chunk2 = static_cast<double>(c2);
                            s.unroll = static_cast<double>(u);
                            s.dynamic_sched = dyn == 1;
                            s.omp_chunk = static_cast<double>(oc);
                            s.threads = static_cast<double>(th);
                            s.perm = identity;
                            if (!taco_hidden_feasible(k, t, s))
                                continue;
                            double v = taco_cost_ms(k, t, s);
                            if (v < best) {
                                best = v;
                                best_s = s;
                            }
                        }
                    }
                }
            }
        }
    }

    Configuration cfg;
    cfg.push_back(static_cast<std::int64_t>(best_s.chunk));
    cfg.push_back(static_cast<std::int64_t>(best_s.chunk2));
    cfg.push_back(static_cast<std::int64_t>(best_s.unroll));
    cfg.push_back(static_cast<std::int64_t>(best_s.dynamic_sched ? 1 : 0));
    cfg.push_back(static_cast<std::int64_t>(best_s.omp_chunk));
    if (kernel_has_threads_param(k))
        cfg.push_back(static_cast<std::int64_t>(best_s.threads));
    cfg.push_back(best_s.perm);
    return cfg;
}

Configuration
make_default(TacoKernel k)
{
    int m = kernel_perm_size(k);
    Permutation identity(static_cast<std::size_t>(m));
    for (int i = 0; i < m; ++i)
        identity[static_cast<std::size_t>(i)] = i;

    Configuration cfg;
    cfg.push_back(std::int64_t{1024});  // chunk_size: coarse, untiled-ish
    cfg.push_back(std::int64_t{1024});  // chunk_size2
    cfg.push_back(std::int64_t{1});     // unroll_factor
    cfg.push_back(std::int64_t{0});     // static scheduling
    cfg.push_back(std::int64_t{256});   // omp_chunk_size
    if (kernel_has_threads_param(k))
        cfg.push_back(std::int64_t{32});
    cfg.push_back(identity);
    return cfg;
}

}  // namespace

TacoSchedule
decode_schedule(TacoKernel k, const Configuration& c)
{
    TacoSchedule s;
    s.chunk = static_cast<double>(as_int(c[0]));
    s.chunk2 = static_cast<double>(as_int(c[1]));
    s.unroll = static_cast<double>(as_int(c[2]));
    s.dynamic_sched = as_int(c[3]) == 1;
    s.omp_chunk = static_cast<double>(as_int(c[4]));
    std::size_t next = 5;
    if (kernel_has_threads_param(k)) {
        s.threads = static_cast<double>(as_int(c[next]));
        ++next;
    } else {
        s.threads = 32.0;
    }
    s.perm = as_permutation(c[next]);
    return s;
}

Benchmark
make_taco_benchmark(TacoKernel k, const std::string& tensor_name)
{
    const TensorProfile t = profile(tensor_name);  // copy into closures

    Benchmark b;
    b.framework = "TACO";
    b.name = kernel_name(k) + "/" + tensor_name;
    b.full_budget = kernel_budget(k);
    b.doe_samples = 10;
    b.make_space = [k](const SpaceVariant& v) { return build_space(k, v); };
    b.true_cost = [k, t](const Configuration& c) {
        return taco_cost_ms(k, t, decode_schedule(k, c));
    };
    b.hidden_feasible = [k, t](const Configuration& c) {
        return taco_hidden_feasible(k, t, decode_schedule(k, c));
    };
    b.evaluate = [k, t](const Configuration& c, RngEngine& rng) -> EvalResult {
        TacoSchedule s = decode_schedule(k, c);
        if (!taco_hidden_feasible(k, t, s))
            return EvalResult::infeasible();
        double v = taco_cost_ms(k, t, s) * rng.lognormal_factor(0.03);
        return EvalResult{v, true};
    };
    b.has_hidden_constraints = k == TacoKernel::kTTV;
    b.expert = Lazy<std::optional<Configuration>>(
        [k, t] { return derive_expert(k, t); });
    b.default_config = make_default(k);
    b.reference_cost = Lazy<double>(
        [expert = b.expert, cost = b.true_cost] { return cost(*expert); });
    return b;
}

std::vector<Benchmark>
taco_suite()
{
    std::vector<Benchmark> out;
    // The 15 kernel x tensor combinations of the paper's Table 5.
    out.push_back(make_taco_benchmark(TacoKernel::kSpMM, "scircuit"));
    out.push_back(make_taco_benchmark(TacoKernel::kSpMM, "cage12"));
    out.push_back(make_taco_benchmark(TacoKernel::kSpMM, "laminar_duct3D"));
    out.push_back(make_taco_benchmark(TacoKernel::kSDDMM, "email-Enron"));
    out.push_back(make_taco_benchmark(TacoKernel::kSDDMM, "ACTIVSg10K"));
    out.push_back(make_taco_benchmark(TacoKernel::kSDDMM, "Goodwin_040"));
    out.push_back(make_taco_benchmark(TacoKernel::kMTTKRP, "uber"));
    out.push_back(make_taco_benchmark(TacoKernel::kMTTKRP, "nips"));
    out.push_back(make_taco_benchmark(TacoKernel::kMTTKRP, "chicago"));
    out.push_back(make_taco_benchmark(TacoKernel::kTTV, "facebook"));
    out.push_back(make_taco_benchmark(TacoKernel::kTTV, "uber3"));
    out.push_back(make_taco_benchmark(TacoKernel::kTTV, "random1"));
    out.push_back(make_taco_benchmark(TacoKernel::kSpMV, "laminar_duct3D"));
    out.push_back(make_taco_benchmark(TacoKernel::kSpMV, "cage12"));
    out.push_back(make_taco_benchmark(TacoKernel::kSpMV, "filter3D"));
    return out;
}

}  // namespace baco::taco
