#ifndef BACO_API_BACO_HPP_
#define BACO_API_BACO_HPP_

/**
 * @file
 * The umbrella header: everything a BaCO user needs through one include.
 *
 *   #include "api/baco.hpp"
 *
 *   baco::Study study = baco::StudyBuilder()
 *                           .ordinal("tile", {4, 8, 16, 32}, true)
 *                           .categorical("sched", {"static", "dynamic"})
 *                           .constraint("tile >= 8")
 *                           .objective(my_compiler_toolchain)
 *                           .method("baco")
 *                           .budget(60)
 *                           .execution(baco::ExecutionPolicy::Batched(4))
 *                           .build();
 *   baco::StudyResult result = study.run();
 *
 * Pulls in the Study front door (study.hpp), the method registry, the
 * execution-policy value, the search-space / tuner / history types and
 * the suite's benchmark registry. The serve layer's wire protocol and
 * transports stay behind their own headers under serve/ — Study drives
 * a distributed fleet without the caller touching them.
 */

#include "api/execution_policy.hpp"
#include "api/method_registry.hpp"
#include "api/study.hpp"
#include "core/evaluator.hpp"
#include "core/search_space.hpp"
#include "core/tuner.hpp"
#include "exec/ask_tell.hpp"
#include "exec/checkpoint.hpp"
#include "exec/drive.hpp"
#include "exec/eval_cache.hpp"
#include "suite/benchmark.hpp"
#include "suite/registry.hpp"

#endif  // BACO_API_BACO_HPP_
