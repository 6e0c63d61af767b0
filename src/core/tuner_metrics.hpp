#ifndef BACO_CORE_TUNER_METRICS_HPP_
#define BACO_CORE_TUNER_METRICS_HPP_

/**
 * @file
 * The tuner-layer instrumentation handles, shared by every AskTellTuner
 * implementation — the model-based core tuner and the baseline tuners
 * (random search, OpenTuner-like, Ytopt-like) all feed the same
 * `tuner.*` metrics, so per-method latency accounting (and the
 * suggest_latency bench's instrumentation pin) holds regardless of
 * which method a study runs.
 *
 * The registry returns one stable object per name, so each translation
 * unit's get() refers to the same counters; the struct only caches the
 * references to keep the hot suggest/observe paths registration-free.
 */

#include "obs/metrics.hpp"

namespace baco {

/** Per-phase instrumentation handles, registered once per process. */
struct TunerMetrics {
  obs::Histogram& suggest = hist("tuner.suggest_seconds");
  obs::Histogram& observe = hist("tuner.observe_seconds");
  obs::Histogram& doe = hist("tuner.doe_seconds");
  obs::Histogram& model_fit = hist("tuner.model_fit_seconds");
  obs::Histogram& feasibility_fit = hist("tuner.feasibility_fit_seconds");
  obs::Histogram& acquisition = hist("tuner.acquisition_seconds");
  obs::Counter& suggestions = counter("tuner.suggestions_total");
  obs::Counter& observations = counter("tuner.observations_total");
  /** Incremental surrogate refresh accounting: O(n^2) factor appends vs
   *  full O(n^3) hyperparameter refits (core tuner only). */
  obs::Counter& model_extends = counter("tuner.model_extends_total");
  obs::Counter& model_refits = counter("tuner.model_refits_total");
  /** Work per unit, so a slower suggest can be told apart from one doing
   *  more: candidates scored by each acquisition search, and marginal-
   *  likelihood evaluations spent by each full GP refit (core tuner
   *  only). Each is added once per search / refit, outside the loops. */
  obs::Counter& acquisition_candidates =
      counter("tuner.acquisition_candidates_total");
  obs::Counter& model_nll_evals = counter("tuner.model_nll_evals_total");
  /** Of those: candidates whose GP prediction stopped early because
   *  their EI could not beat the search's floor, and NLL evaluations
   *  whose kernel matrix failed to factorize (+inf). Added like the
   *  totals they divide. */
  obs::Counter& acquisition_pruned = counter("tuner.acquisition_pruned_total");
  obs::Counter& model_nll_failures =
      counter("tuner.model_nll_failures_total");

  static TunerMetrics& get()
  {
      static TunerMetrics m;
      return m;
  }

 private:
  static obs::Histogram& hist(const char* name)
  {
      return obs::MetricsRegistry::global().histogram(name);
  }
  static obs::Counter& counter(const char* name)
  {
      return obs::MetricsRegistry::global().counter(name);
  }
};

}  // namespace baco

#endif  // BACO_CORE_TUNER_METRICS_HPP_
