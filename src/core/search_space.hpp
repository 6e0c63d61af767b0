#ifndef BACO_CORE_SEARCH_SPACE_HPP_
#define BACO_CORE_SEARCH_SPACE_HPP_

/**
 * @file
 * The autotuning search space: an ordered set of parameters plus known
 * constraints. This is the "rich input language" a portable autoscheduler
 * exposes to compilers (paper Sec. 1).
 */

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/constraint.hpp"
#include "core/parameter.hpp"
#include "core/types.hpp"
#include "linalg/rng.hpp"

namespace baco {

/** Ordered parameter collection + known constraints. */
class SearchSpace {
 public:
  SearchSpace() = default;

  // Builders; each returns the new parameter's index.
  std::size_t add_real(const std::string& name, double lo, double hi,
                       bool log_scale = false);
  std::size_t add_integer(const std::string& name, std::int64_t lo,
                          std::int64_t hi, bool log_scale = false);
  std::size_t add_ordinal(const std::string& name,
                          std::vector<std::int64_t> values,
                          bool log_scale = false);
  std::size_t add_categorical(const std::string& name,
                              std::vector<std::string> categories);
  std::size_t add_permutation(
      const std::string& name, int m,
      PermutationMetric metric = PermutationMetric::kSpearman,
      PermutationForm form = PermutationForm::kEuclidean);

  /** Add a known constraint parsed from an expression string. */
  void add_constraint(const std::string& expr);
  /** Add a known constraint as a predicate over configurations. */
  void add_constraint(std::function<bool(const Configuration&)> fn,
                      std::vector<std::string> vars,
                      std::string label = "<function>");

  std::size_t num_params() const { return params_.size(); }
  const Parameter& param(std::size_t i) const { return *params_[i]; }
  Parameter& mutable_param(std::size_t i) { return *params_[i]; }

  /** Index of a parameter by name. @throws std::runtime_error if missing. */
  std::size_t index_of(const std::string& name) const;
  /** True when a parameter with this name exists. */
  bool has_param(const std::string& name) const;

  const std::vector<Constraint>& constraints() const { return constraints_; }
  bool has_constraints() const { return !constraints_.empty(); }

  /** Scalar variable bindings for expression evaluation (permutations are
   *  omitted — they cannot appear in scalar expressions). */
  EvalContext make_context(const Configuration& c) const;

  /** True when c satisfies every known constraint. */
  bool satisfies(const Configuration& c) const;

  /** Uniform sample from the dense (unconstrained) space. */
  Configuration sample_unconstrained(RngEngine& rng) const;

  /**
   * Uniform sample from the feasible region via rejection sampling.
   * Returns nullopt when max_tries rejections occur (very sparse spaces
   * should use the Chain-of-Trees instead).
   */
  std::optional<Configuration> sample_feasible(RngEngine& rng,
                                               int max_tries = 10000) const;

  /**
   * All single-parameter moves from c (paper Sec. 3.3's neighbourhood).
   * Not filtered for feasibility — the caller applies constraint/CoT checks.
   */
  std::vector<Configuration> neighbors(const Configuration& c,
                                       RngEngine& rng) const;

  /** Numeric feature encoding of a configuration (random-forest input). */
  std::vector<double> encode(const Configuration& c) const;
  std::size_t num_features() const;

  /** Normalized per-dimension distance (GP kernel input). */
  double dim_distance(std::size_t dim, const Configuration& a,
                      const Configuration& b) const;

  /** Human-readable "name=value, ..." rendering. */
  std::string config_to_string(const Configuration& c) const;

  /** Product of value counts; infinity when any parameter is continuous. */
  double dense_size() const;

  /** True when all parameters are discrete. */
  bool is_fully_discrete() const;

 private:
  std::size_t add_param(std::unique_ptr<Parameter> p);

  std::vector<std::unique_ptr<Parameter>> params_;
  std::unordered_map<std::string, std::size_t> by_name_;
  std::vector<Constraint> constraints_;
};

}  // namespace baco

#endif  // BACO_CORE_SEARCH_SPACE_HPP_
