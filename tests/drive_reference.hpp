#ifndef BACO_TESTS_DRIVE_REFERENCE_HPP_
#define BACO_TESTS_DRIVE_REFERENCE_HPP_

// The references parity tests compare against, written out independently
// of drive() so that no parity test compares drive() with itself:
//  - the plain sequential ask-tell loop (the serial driver the library
//    had before drive() replaced it), for every
//    serial == batched(1) == async(1) == distributed(1) test;
//  - the barrier-round loop the library's batched engine ran, evaluating
//    sequentially (results are keyed by (seed, index), so concurrency
//    never changes them), for batched and sharded runs at batch > 1.
// Plus small conveniences for tests that run drive() on a thread pool.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/method_registry.hpp"
#include "exec/ask_tell.hpp"
#include "exec/drive.hpp"
#include "suite/benchmark.hpp"

namespace baco {

/**
 * suggest(1) / evaluate under eval_rng_for(seed, index) / observe until
 * the budget is exhausted, then take the finalized history.
 */
inline TuningHistory
reference_serial_loop(AskTellTuner& tuner, const BlackBoxFn& objective)
{
    using Clock = std::chrono::steady_clock;
    while (tuner.remaining() > 0) {
        std::vector<Configuration> batch = tuner.suggest(1);
        if (batch.empty())
            break;
        std::uint64_t index = tuner.history().size();
        std::vector<EvalResult> results;
        results.reserve(batch.size());
        double eval_seconds = 0.0;
        for (const Configuration& c : batch) {
            RngEngine rng = eval_rng_for(tuner.run_seed(), index++);
            auto t0 = Clock::now();
            results.push_back(objective(c, rng));
            eval_seconds +=
                std::chrono::duration<double>(Clock::now() - t0).count();
        }
        tuner.observe(batch, results);
        tuner.mutable_history().eval_seconds += eval_seconds;
    }
    return tuner.take_history();
}

/**
 * suggest(batch_size) / evaluate the round under eval_rng_for(seed,
 * first_index + i) / observe it whole until the budget is exhausted.
 */
inline TuningHistory
reference_batched_loop(AskTellTuner& tuner, const BlackBoxFn& objective,
                       int batch_size)
{
    while (tuner.remaining() > 0) {
        std::vector<Configuration> batch = tuner.suggest(batch_size);
        if (batch.empty())
            break;
        std::uint64_t first_index = tuner.history().size();
        std::vector<EvalResult> results;
        results.reserve(batch.size());
        for (std::size_t i = 0; i < batch.size(); ++i) {
            RngEngine rng = eval_rng_for(tuner.run_seed(), first_index + i);
            results.push_back(objective(batch[i], rng));
        }
        tuner.observe(batch, results);
    }
    return tuner.take_history();
}

/**
 * The reference loop over a benchmark with a registry method, the tuner
 * built exactly as StudyBuilder builds it (benchmark DoE size): the
 * serial loop at batch_size 1, the barrier loop above it.
 */
inline TuningHistory
reference_run(const Benchmark& b, const std::string& method, int budget,
              std::uint64_t seed, int batch_size = 1)
{
    std::shared_ptr<SearchSpace> space = b.make_space(SpaceVariant{});
    MethodSpec spec;
    spec.budget = budget;
    spec.doe_samples = b.doe_samples;
    spec.seed = seed;
    std::unique_ptr<AskTellTuner> tuner =
        MethodRegistry::global().make(method, *space, spec);
    return batch_size == 1
               ? reference_serial_loop(*tuner, b.evaluate)
               : reference_batched_loop(*tuner, b.evaluate, batch_size);
}

/** drive() on a num_threads pool until the budget is spent, then take
 *  the finalized history. */
inline TuningHistory
pool_drive(AskTellTuner& tuner, const BlackBoxFn& objective,
           int num_threads, DriveOptions opt = {})
{
    ThreadPoolExecutor exec(objective, tuner.run_seed(), num_threads);
    drive(tuner, exec, std::move(opt));
    return tuner.take_history();
}

/** DriveOptions for barrier rounds (async = false) or async slots. */
inline DriveOptions
drive_options(int batch_size, bool async = false)
{
    DriveOptions opt;
    opt.batch_size = batch_size;
    opt.async_mode = async;
    return opt;
}

}  // namespace baco

#endif  // BACO_TESTS_DRIVE_REFERENCE_HPP_
