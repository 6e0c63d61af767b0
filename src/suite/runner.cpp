#include "suite/runner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "api/method_registry.hpp"
#include "exec/drive.hpp"
#include "exec/thread_pool.hpp"

namespace baco::suite {

namespace {
const double kInf = std::numeric_limits<double>::infinity();
}

const std::vector<std::string>&
headline_methods()
{
    static const std::vector<std::string> kMethods = {
        "BaCO", "ATF", "Ytopt", "Uniform", "CoT",
    };
    return kMethods;
}

TuningHistory
run_method(const Benchmark& b, const std::string& method, int budget,
           std::uint64_t seed, const SpaceVariant& variant)
{
    std::shared_ptr<SearchSpace> space = b.make_space(variant);
    std::unique_ptr<AskTellTuner> tuner = MethodRegistry::global().make(
        method, *space, {budget, b.doe_samples, seed});
    return drive_serial(*tuner, b.evaluate);
}

TuningHistory
run_baco_custom(const Benchmark& b, TunerOptions opt,
                const SpaceVariant& variant)
{
    std::shared_ptr<SearchSpace> space = b.make_space(variant);
    Tuner tuner(*space, opt);
    return drive_serial(tuner, b.evaluate);
}

double
RepStats::mean_best_at(int evals) const
{
    double acc = 0.0;
    int n = 0;
    for (const auto& t : trajectories) {
        if (t.empty())
            continue;
        std::size_t at = std::min<std::size_t>(
            t.size() - 1, static_cast<std::size_t>(std::max(0, evals - 1)));
        acc += t[at];
        ++n;
    }
    return n > 0 ? acc / n : kInf;
}

double
RepStats::mean_rel_to_reference(double ref, int evals) const
{
    double acc = 0.0;
    int n = 0;
    for (const auto& t : trajectories) {
        if (t.empty())
            continue;
        acc += rel_to_reference(t, ref, evals);
        ++n;
    }
    return n > 0 ? acc / n : 0.0;
}

int
RepStats::count_reached(double ref) const
{
    int count = 0;
    for (const auto& t : trajectories)
        if (!t.empty() && t.back() <= ref)
            ++count;
    return count;
}

std::vector<double>
RepStats::mean_trajectory() const
{
    if (trajectories.empty())
        return {};
    std::size_t len = 0;
    for (const auto& t : trajectories)
        len = std::max(len, t.size());
    std::vector<double> mean(len, 0.0);
    std::vector<int> counts(len, 0);
    for (const auto& t : trajectories) {
        for (std::size_t i = 0; i < len; ++i) {
            double v = i < t.size() ? t[i] : t.back();
            if (std::isfinite(v)) {
                mean[i] += v;
                counts[i] += 1;
            }
        }
    }
    for (std::size_t i = 0; i < len; ++i)
        mean[i] = counts[i] > 0 ? mean[i] / counts[i] : kInf;
    return mean;
}

RepStats
run_repetitions(const Benchmark& b, const std::string& method, int budget,
                int reps, std::uint64_t seed0, int num_threads,
                const SpaceVariant& variant)
{
    std::vector<TuningHistory> histories(
        static_cast<std::size_t>(std::max(0, reps)));
    std::vector<std::function<void()>> tasks;
    tasks.reserve(histories.size());
    for (int r = 0; r < reps; ++r) {
        tasks.push_back([&, r] {
            histories[static_cast<std::size_t>(r)] =
                run_method(b, method, budget,
                           seed0 + static_cast<std::uint64_t>(r), variant);
        });
    }
    ThreadPool(num_threads).run(std::move(tasks));

    RepStats stats;
    for (TuningHistory& h : histories) {
        stats.trajectories.push_back(h.best_trajectory());
        stats.mean_tuner_seconds += h.tuner_seconds;
        stats.mean_eval_seconds += h.eval_seconds;
    }
    if (!histories.empty()) {
        stats.mean_tuner_seconds /= static_cast<double>(histories.size());
        stats.mean_eval_seconds /= static_cast<double>(histories.size());
    }
    return stats;
}

double
rel_to_reference(const std::vector<double>& t, double ref, int evals)
{
    if (t.empty())
        return 0.0;
    std::size_t at = std::min<std::size_t>(
        t.size() - 1, static_cast<std::size_t>(std::max(0, evals - 1)));
    return std::isfinite(t[at]) ? ref / t[at] : 0.0;
}

int
evals_to_reach(const std::vector<double>& trajectory, double target)
{
    for (std::size_t i = 0; i < trajectory.size(); ++i)
        if (trajectory[i] <= target)
            return static_cast<int>(i) + 1;
    return -1;
}

}  // namespace baco::suite
