#ifndef BACO_EXEC_CHECKPOINT_HPP_
#define BACO_EXEC_CHECKPOINT_HPP_

/**
 * @file
 * JSONL checkpoint/resume of tuning runs.
 *
 * A checkpoint file is one JSON object per line: a meta line (format
 * version, run seed, timing), one obs line per evaluated configuration,
 * and a state line carrying the tuner's serialized sampler RNG. Rewritten
 * atomically (tmp + rename) after every observed batch, the file lets an
 * interrupted run resume mid-budget and — because the sampler stream
 * position is restored exactly — finish with the same history an
 * uninterrupted run would have produced.
 *
 * Asynchronous runs additionally write one pending line per in-flight
 * evaluation (its configuration and evaluation index): those configs were
 * already drawn from the sampler stream but not yet observed, so a resume
 * re-dispatches them under their original indices — the (seed, index)
 * noise streams make re-evaluation yield the identical result, and every
 * evaluation is told exactly once. Readers that ignore pending lines
 * (batch-mode resume) still restore a consistent tuner; the pending work
 * is then simply re-suggested from the budget that remains.
 */

#include <optional>
#include <string>
#include <vector>

#include "exec/ask_tell.hpp"

namespace baco {

/** One suggested-but-unobserved evaluation of an asynchronous run. */
struct PendingEval {
  std::uint64_t index = 0;  ///< evaluation index (noise-stream key)
  Configuration config;
};

/** Everything a checkpoint file holds. */
struct CheckpointData {
  std::uint64_t seed = 0;
  TuningHistory history;
  std::string sampler_state;
  /** In-flight evaluations of an async run (empty for batch runs). */
  std::vector<PendingEval> pending;
};

/** Atomically (tmp + rename) write the tuner's current state to path. */
bool save_checkpoint(const std::string& path, const AskTellTuner& tuner);

/**
 * save_checkpoint recording in-flight evaluations too (async drivers
 * checkpoint while work is outstanding).
 */
bool save_checkpoint(const std::string& path, const AskTellTuner& tuner,
                     const std::vector<PendingEval>& pending);

/** Parse a checkpoint file; nullopt on missing/corrupt file. */
std::optional<CheckpointData> load_checkpoint(const std::string& path);

/**
 * Load path and restore the tuner from it. Returns false when the file is
 * absent/corrupt or the tuner does not support resume. When pending is
 * non-null it receives the checkpoint's in-flight evaluations, which the
 * caller is expected to re-dispatch (DriveOptions::resume_pending); when
 * null they are dropped and the resumed tuner re-suggests fresh work.
 */
bool resume_from_checkpoint(const std::string& path, AskTellTuner& tuner,
                            std::vector<PendingEval>* pending = nullptr);

}  // namespace baco

#endif  // BACO_EXEC_CHECKPOINT_HPP_
