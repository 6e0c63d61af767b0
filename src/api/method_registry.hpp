#ifndef BACO_API_METHOD_REGISTRY_HPP_
#define BACO_API_METHOD_REGISTRY_HPP_

/**
 * @file
 * String-keyed registry of search-method factories: the single place a
 * method name — from a StudyBuilder, a serve open_session frame, or a
 * command line — becomes an ask-tell tuner.
 *
 * Built-in methods are the paper's competitors ("baco", "baco--",
 * "opentuner", "ytopt", "ytopt-gp", "random", "cot"); the suite's display
 * names ("BaCO", "ATF", "Uniform", "Ytopt(GP)", ...) resolve as aliases,
 * and lookup is case-insensitive, so remote and local construction can no
 * longer drift. User code registers additional methods with add(), which
 * makes them available everywhere a method name is accepted — Study,
 * the suite wrappers and the serve protocol alike.
 */

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/thread_annotations.hpp"
#include "exec/ask_tell.hpp"

namespace baco {

class SearchSpace;

/** Everything a method factory needs besides the space. */
struct MethodSpec {
  int budget = 60;
  /** Initial-phase size; the tuner clamps it to the budget. */
  int doe_samples = 10;
  std::uint64_t seed = 0;
};

/**
 * Builds an ask-tell tuner over a space. The space reference must outlive
 * the returned tuner.
 */
using MethodFactory = std::function<std::unique_ptr<AskTellTuner>(
    const SearchSpace&, const MethodSpec&)>;

/** The registry. Thread-safe; one process-wide instance via global(). */
class MethodRegistry {
 public:
  /** A fresh registry with the built-in methods pre-registered. */
  MethodRegistry();

  /** The process-wide registry every name-accepting entry point uses. */
  static MethodRegistry& global();

  /**
   * Register (or replace) a method. Lookup of `name` and every alias is
   * case-insensitive. @throws std::invalid_argument when a name or alias
   * already resolves to a *different* method.
   */
  void add(const std::string& name, MethodFactory factory,
           const std::vector<std::string>& aliases = {});

  /** True when name (or an alias of it) is registered. */
  bool contains(const std::string& name) const;

  /** Canonical name for name/alias, or nullopt when unknown. */
  std::optional<std::string> resolve(const std::string& name) const;

  /**
   * Construct the named method's tuner. @throws std::runtime_error with
   * the closest registered names when the name is unknown.
   */
  std::unique_ptr<AskTellTuner> make(const std::string& name,
                                     const SearchSpace& space,
                                     const MethodSpec& spec) const;

  /** All canonical method names, sorted. */
  std::vector<std::string> names() const;

  /** All (alias, canonical) pairs, sorted by alias. */
  std::vector<std::pair<std::string, std::string>> aliases() const;

 private:
  struct IndexEntry {
    std::string canonical;
    std::string spelling;  ///< the name/alias as registered
  };

  mutable Mutex mutex_;
  /** canonical name -> factory. */
  std::map<std::string, MethodFactory> factories_ BACO_GUARDED_BY(mutex_);
  /** case-folded name or alias -> canonical + registered spelling. */
  std::map<std::string, IndexEntry> index_ BACO_GUARDED_BY(mutex_);
};

}  // namespace baco

#endif  // BACO_API_METHOD_REGISTRY_HPP_
