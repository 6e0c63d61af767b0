#ifndef BACO_CORE_PARAMETER_HPP_
#define BACO_CORE_PARAMETER_HPP_

/**
 * @file
 * The RIPOC(+Permutation) parameter hierarchy (paper Sec. 1, Sec. 4.1).
 *
 * Each parameter knows how to sample itself, enumerate its values (when
 * discrete), propose neighbours for local search, measure a normalized
 * distance between two of its values (feeding the GP kernel), and encode a
 * value as numeric features (feeding the random forests).
 */

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/distance.hpp"
#include "core/types.hpp"
#include "linalg/rng.hpp"

namespace baco {

/** Parameter type tags. */
enum class ParamKind {
  kReal,
  kInteger,
  kOrdinal,
  kCategorical,
  kPermutation,
};

/** Abstract base for all parameter types. */
class Parameter {
 public:
  Parameter(std::string name, ParamKind kind)
      : name_(std::move(name)), kind_(kind) {}
  virtual ~Parameter() = default;

  const std::string& name() const { return name_; }
  ParamKind kind() const { return kind_; }

  /** True for every kind except kReal. */
  virtual bool is_discrete() const { return true; }

  /** Number of distinct values; 0 for continuous parameters. */
  virtual std::size_t num_values() const = 0;

  /** The i-th value of a discrete parameter. */
  virtual ParamValue value_at(std::size_t i) const = 0;

  /**
   * Index of a value within a discrete parameter's value list.
   * Returns num_values() when not found.
   */
  virtual std::size_t index_of(const ParamValue& v) const = 0;

  /** Uniform random value. */
  virtual ParamValue sample(RngEngine& rng) const = 0;

  /**
   * Local-search neighbours of v: the single-parameter moves reachable from
   * v (paper Sec. 3.3). May use rng for stochastic proposals (continuous
   * perturbations, random permutation swaps).
   */
  virtual std::vector<ParamValue> neighbors(const ParamValue& v,
                                            RngEngine& rng) const = 0;

  /** Normalized distance in [0, 1] between two values (GP kernel input). */
  virtual double distance(const ParamValue& a, const ParamValue& b) const = 0;

  /**
   * Numeric value used by the constraint-expression evaluator. Ordered
   * parameters return their value; categoricals their index. Permutations
   * have no scalar meaning and must not appear in scalar expressions.
   */
  virtual double numeric_value(const ParamValue& v) const = 0;

  /** Number of numeric features encode() appends. */
  virtual std::size_t num_features() const = 0;

  /** Append the feature encoding of v to out (random-forest input). */
  virtual void encode(const ParamValue& v,
                      std::vector<double>& out) const = 0;

  /** Render v for logs and reports. */
  virtual std::string value_to_string(const ParamValue& v) const;

 private:
  std::string name_;
  ParamKind kind_;
};

/**
 * Shared base of the ordered kinds (real, integer, ordinal): values map to
 * a coordinate on a line, optionally log-scaled (paper Sec. 4.1), and the
 * distance and the feature encoding are both measured along that line.
 */
class OrderedParameter : public Parameter {
 public:
  bool log_scale() const { return log_scale_; }

  /** |coordinate(a) - coordinate(b)| / coordinate_span(). */
  double distance(const ParamValue& a, const ParamValue& b) const final;
  std::size_t num_features() const final { return 1; }
  void encode(const ParamValue& v, std::vector<double>& out) const final;

 protected:
  /** lo/hi are the smallest and largest values; a single-valued range
   *  gets span 1 so distances stay finite. */
  OrderedParameter(std::string name, ParamKind kind, bool log_scale,
                   double lo, double hi);

  double transform(double x) const { return log_scale_ ? std::log(x) : x; }

  /** v's position on the line: the value, or its log when log-scaled. */
  virtual double coordinate(const ParamValue& v) const = 0;

  /** Width of the coordinate range, which distances are normalized by. */
  double coordinate_span() const { return span_; }

 private:
  bool log_scale_;
  double origin_;  // coordinate of the lowest value
  double span_;    // coordinate range width, for normalization
};

/**
 * Continuous parameter on [lo, hi]; optionally log-scaled, in which case
 * distances and local-search steps operate in log space (paper Sec. 4.1).
 */
class RealParameter : public OrderedParameter {
 public:
  RealParameter(std::string name, double lo, double hi, bool log_scale = false);

  double lo() const { return lo_; }
  double hi() const { return hi_; }

  bool is_discrete() const override { return false; }
  std::size_t num_values() const override { return 0; }
  ParamValue value_at(std::size_t) const override;
  std::size_t index_of(const ParamValue&) const override { return 0; }
  ParamValue sample(RngEngine& rng) const override;
  std::vector<ParamValue> neighbors(const ParamValue& v,
                                    RngEngine& rng) const override;
  double numeric_value(const ParamValue& v) const override;

 protected:
  double coordinate(const ParamValue& v) const override;

 private:
  double lo_, hi_;
};

/** Integer parameter on [lo, hi] (inclusive); optionally log-scaled. */
class IntegerParameter : public OrderedParameter {
 public:
  IntegerParameter(std::string name, std::int64_t lo, std::int64_t hi,
                   bool log_scale = false);

  std::int64_t lo() const { return lo_; }
  std::int64_t hi() const { return hi_; }

  std::size_t num_values() const override;
  ParamValue value_at(std::size_t i) const override;
  std::size_t index_of(const ParamValue& v) const override;
  ParamValue sample(RngEngine& rng) const override;
  std::vector<ParamValue> neighbors(const ParamValue& v,
                                    RngEngine& rng) const override;
  double numeric_value(const ParamValue& v) const override;

 protected:
  double coordinate(const ParamValue& v) const override;

 private:
  std::int64_t lo_, hi_;
};

/**
 * Ordinal parameter: an explicit ascending list of comparable values (e.g.
 * tile sizes {2, 4, ..., 1024}). Optionally log-scaled, which is the natural
 * choice for exponential value lists (paper Sec. 4.1 / 4.2).
 */
class OrdinalParameter : public OrderedParameter {
 public:
  OrdinalParameter(std::string name, std::vector<std::int64_t> values,
                   bool log_scale = false);

  const std::vector<std::int64_t>& values() const { return values_; }

  std::size_t num_values() const override { return values_.size(); }
  ParamValue value_at(std::size_t i) const override;
  std::size_t index_of(const ParamValue& v) const override;
  ParamValue sample(RngEngine& rng) const override;
  std::vector<ParamValue> neighbors(const ParamValue& v,
                                    RngEngine& rng) const override;
  double numeric_value(const ParamValue& v) const override;

 protected:
  double coordinate(const ParamValue& v) const override;

 private:
  std::vector<std::int64_t> values_;
};

/**
 * Categorical parameter: unordered labels, stored as indices into the
 * category list. Distance is Hamming (paper Sec. 4.1); features are one-hot.
 */
class CategoricalParameter : public Parameter {
 public:
  CategoricalParameter(std::string name, std::vector<std::string> categories);

  const std::vector<std::string>& categories() const { return categories_; }

  std::size_t num_values() const override { return categories_.size(); }
  ParamValue value_at(std::size_t i) const override;
  std::size_t index_of(const ParamValue& v) const override;
  ParamValue sample(RngEngine& rng) const override;
  std::vector<ParamValue> neighbors(const ParamValue& v,
                                    RngEngine& rng) const override;
  double distance(const ParamValue& a, const ParamValue& b) const override;
  double numeric_value(const ParamValue& v) const override;
  std::size_t num_features() const override { return categories_.size(); }
  void encode(const ParamValue& v, std::vector<double>& out) const override;
  std::string value_to_string(const ParamValue& v) const override;

 private:
  std::vector<std::string> categories_;
};

/**
 * Permutation parameter over m elements with a configurable semimetric
 * (Spearman by default — the paper's best performer, Sec. 5.3).
 *
 * Values enumerate in lexicographic order of the permutation vector; m is
 * limited to 8 for full enumeration (8! = 40320), which covers all loop
 * reordering spaces in the paper's benchmarks.
 */
class PermutationParameter : public Parameter {
 public:
  PermutationParameter(std::string name, int m,
                       PermutationMetric metric = PermutationMetric::kSpearman);

  int length() const { return m_; }
  PermutationMetric metric() const { return metric_; }
  /** Change the semimetric (used by the Fig. 9 ablation). */
  void set_metric(PermutationMetric m) { metric_ = m; }

  std::size_t num_values() const override;
  ParamValue value_at(std::size_t i) const override;
  std::size_t index_of(const ParamValue& v) const override;
  ParamValue sample(RngEngine& rng) const override;
  std::vector<ParamValue> neighbors(const ParamValue& v,
                                    RngEngine& rng) const override;
  double distance(const ParamValue& a, const ParamValue& b) const override;
  double numeric_value(const ParamValue& v) const override;
  std::size_t num_features() const override { return static_cast<std::size_t>(m_); }
  void encode(const ParamValue& v, std::vector<double>& out) const override;

 private:
  int m_;
  PermutationMetric metric_;
  std::size_t factorial_;
};

/** Convenience accessors with checked variant access. */
double as_real(const ParamValue& v);
std::int64_t as_int(const ParamValue& v);
const Permutation& as_permutation(const ParamValue& v);

}  // namespace baco

#endif  // BACO_CORE_PARAMETER_HPP_
