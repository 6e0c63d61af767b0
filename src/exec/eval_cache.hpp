#ifndef BACO_EXEC_EVAL_CACHE_HPP_
#define BACO_EXEC_EVAL_CACHE_HPP_

/**
 * @file
 * Evaluation cache: canonical configuration key -> EvalResult.
 *
 * Compiler evaluations are expensive (compile + run), so repeat
 * configurations — within a run, across suite repetitions, or across
 * separate tuning sessions via save()/load() — are short-circuited. The
 * cache is thread-safe; drive() consults it before dispatching work.
 *
 * Entries can be namespaced by benchmark identity (benchmark name plus a
 * structural fingerprint of its search space, see namespace_key), so one
 * persistent cache file safely serves the whole suite and every session of
 * the serve layer: the same configuration key under two benchmarks — or
 * under two revisions of one benchmark's space — never collides.
 *
 * An optional LRU bound (set_max_entries) caps memory for long-lived
 * servers: inserts beyond the bound evict the least-recently-used entry,
 * with eviction statistics for observability, and save() orders entries
 * so a bounded reload keeps the hottest ones.
 *
 * Caching replaces a fresh noisy measurement with the first recorded one,
 * so with a noisy black box a cache-enabled run is deterministic given the
 * cache contents but not bit-identical to a cache-free run. Callers that
 * need bit-exact histories (the determinism tests, baseline comparisons)
 * run with the cache off; callers that want throughput turn it on.
 */

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>

#include "core/thread_annotations.hpp"
#include "core/types.hpp"

namespace baco {

class SearchSpace;

/** Thread-safe configuration -> result memo with JSONL persistence. */
class EvalCache {
 public:
  /**
   * Canonical textual key of a configuration: type-tagged parameter values
   * joined with '|' (e.g. "i:4|r:0.5|p:2,0,1"). Collision-free, unlike
   * config_hash().
   */
  static std::string canonical_key(const Configuration& c);

  /**
   * Structural fingerprint of a search space as a 16-hex-digit string:
   * hashes parameter names, kinds, bounds/value sets and the known
   * constraints. Two spaces fingerprint equal iff an EvalResult cached
   * under one is valid under the other.
   */
  static std::string space_fingerprint(const SearchSpace& space);

  /**
   * The cache namespace identifying one benchmark: "<name>@<fingerprint>".
   * Keyed entries survive benchmark-set growth and space redefinitions —
   * a redefined space changes the fingerprint and thus misses cleanly.
   */
  static std::string namespace_key(const std::string& benchmark_name,
                                   const SearchSpace& space);

  /** Cached result for c, if any. Counts a hit or a miss. */
  std::optional<EvalResult> lookup(const Configuration& c) const;

  /** Namespaced lookup (empty ns = the anonymous namespace). */
  std::optional<EvalResult> lookup(const std::string& ns,
                                   const Configuration& c) const;

  /** Record the result for c (first write wins). */
  void insert(const Configuration& c, const EvalResult& r);

  /** Namespaced insert (empty ns = the anonymous namespace). */
  void insert(const std::string& ns, const Configuration& c,
              const EvalResult& r);

  std::size_t size() const;
  std::uint64_t hits() const;
  std::uint64_t misses() const;

  /**
   * Bound the cache to at most n entries (0 = unbounded, the default).
   * When full, an insert evicts the least-recently-used entry — every
   * lookup hit refreshes its entry's recency — so long-lived servers
   * keep the hot working set instead of growing without bound. Shrinking
   * the bound below the current size evicts immediately.
   */
  void set_max_entries(std::size_t n);

  /** The configured bound (0 = unbounded). */
  std::size_t max_entries() const;

  /** Entries evicted by the LRU bound so far. */
  std::uint64_t evictions() const;

  /** Summed lookup hits the evicted entries had received (a high value
   *  means the bound is evicting entries that were still hot). */
  std::uint64_t evicted_hits() const;

  /** Drop all entries and reset the hit/miss/eviction counters. */
  void clear();

  /**
   * Persist all entries as JSONL ({"key":...,"value":...,"feasible":...}
   * per line), least-recently-used first — so load()ing into a bounded
   * cache keeps the most recently used entries and evicts the cold tail.
   * Returns false on I/O failure.
   */
  bool save(const std::string& path) const;

  /**
   * Merge entries from a save()d file (existing keys win). A corrupt
   * line — truncated by a crash mid-write, or garbage appended by a
   * faulty writer — is skipped and counted into *corrupt_lines (when
   * non-null) instead of aborting the load: one bad line must not
   * discard the thousands of valid compile results around it. Returns
   * false only when the file cannot be opened.
   */
  bool load(const std::string& path, std::size_t* corrupt_lines = nullptr);

 private:
  struct Entry {
    EvalResult result;
    std::uint64_t hits = 0;
    /** Position in lru_ (front = most recently used). */
    std::list<const std::string*>::iterator lru_it;
  };

  /** Insert under the LRU bound. */
  void insert_locked(std::string key, const EvalResult& r)
      BACO_REQUIRES(mutex_);
  /** Evict LRU entries until the bound holds. */
  void enforce_bound_locked() BACO_REQUIRES(mutex_);

  mutable Mutex mutex_;
  mutable std::unordered_map<std::string, Entry> entries_
      BACO_GUARDED_BY(mutex_);
  /** Recency order, most recently used first. Points at entries_'s own
   *  keys (stable under rehash and unrelated erases) so the bound does
   *  not double every key's memory. */
  mutable std::list<const std::string*> lru_ BACO_GUARDED_BY(mutex_);
  std::size_t max_entries_ BACO_GUARDED_BY(mutex_) = 0;  ///< 0 = unbounded
  mutable std::uint64_t hits_ BACO_GUARDED_BY(mutex_) = 0;
  mutable std::uint64_t misses_ BACO_GUARDED_BY(mutex_) = 0;
  std::uint64_t evictions_ BACO_GUARDED_BY(mutex_) = 0;
  std::uint64_t evicted_hits_ BACO_GUARDED_BY(mutex_) = 0;
};

}  // namespace baco

#endif  // BACO_EXEC_EVAL_CACHE_HPP_
