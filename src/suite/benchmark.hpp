#ifndef BACO_SUITE_BENCHMARK_HPP_
#define BACO_SUITE_BENCHMARK_HPP_

/**
 * @file
 * The benchmark abstraction shared by the three compiler substrates: a
 * search-space factory, a black-box evaluator, reference configurations and
 * the evaluation budget from the paper's Table 3.
 */

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "core/evaluator.hpp"
#include "core/search_space.hpp"

namespace baco {

/**
 * Space construction variants used by the ablation studies (Fig. 8/9):
 * input log-transforms on/off and the permutation metric and form.
 */
struct SpaceVariant {
  bool log_transforms = true;
  PermutationMetric permutation_metric = PermutationMetric::kSpearman;
  PermutationForm permutation_form = PermutationForm::kEuclidean;
};

/**
 * A value derived on first read. The derivation runs once, on the first
 * thread that reads; concurrent first readers wait for it, and every read
 * returns the same value. Copies share the one derivation. It reads like
 * the value it holds: it converts to `const T&`, and when T is a
 * std::optional it also offers `*`, `->`, `has_value()` and a test for
 * presence.
 */
template <typename T>
class Lazy {
 public:
  /** Derives T{}. */
  Lazy() : Lazy([] { return T{}; }) {}
  explicit Lazy(std::function<T()> derive)
      : state_(std::make_shared<State>(std::move(derive)))
  {
  }

  const T& get() const
  {
      State& s = *state_;
      std::call_once(s.once, [&s] { s.value = s.derive(); });
      return s.value;
  }
  operator const T&() const { return get(); }

  decltype(auto) operator*() const { return *get(); }
  auto operator->() const { return &*get(); }
  bool has_value() const { return get().has_value(); }
  explicit operator bool() const { return get().has_value(); }

 private:
  struct State {
    explicit State(std::function<T()> d) : derive(std::move(d)) {}
    std::once_flag once;
    std::function<T()> derive;
    T value{};
  };
  std::shared_ptr<State> state_;
};

/** One autotuning benchmark instance (kernel x dataset/backend). */
struct Benchmark {
  std::string framework;  ///< "TACO", "RISE", or "HPVM2FPGA"
  std::string name;       ///< e.g. "SpMM/scircuit"

  int full_budget = 60;   ///< Table 3's Full Budget
  int doe_samples = 10;   ///< initial-phase size

  /** Build the search space (the same parameter order for all variants). */
  std::function<std::shared_ptr<SearchSpace>(const SpaceVariant&)> make_space;

  /** The compiler toolchain: evaluate one configuration (with noise). */
  BlackBoxFn evaluate;

  /** Noise-free objective, for expert references and landscape tests. */
  std::function<double(const Configuration&)> true_cost;

  /** Hidden-constraint check without evaluation, for tests. */
  std::function<bool(const Configuration&)> hidden_feasible;

  /** True when some configurations fail at evaluation time (Table 3's H). */
  bool has_hidden_constraints = false;

  /**
   * The expert configuration, absent for HPVM2FPGA. Its search runs on
   * first read, so only code that reports against it pays for it.
   */
  Lazy<std::optional<Configuration>> expert;
  std::optional<Configuration> default_config;

  /**
   * Noise-free reference objective used for "performance relative to
   * expert": the expert's cost when an expert exists, otherwise the
   * virtual-best cost from an offline search (HPVM2FPGA, whose relative
   * performance the paper reports against the best-known design).
   * Derived on first read, like `expert`.
   */
  Lazy<double> reference_cost;

  /** Budget tiers (Sec. 5.2): tiny = 1/3, small = 2/3 of full. */
  int tiny_budget() const { return std::max(1, full_budget / 3); }
  int small_budget() const { return std::max(1, 2 * full_budget / 3); }
};

}  // namespace baco

#endif  // BACO_SUITE_BENCHMARK_HPP_
