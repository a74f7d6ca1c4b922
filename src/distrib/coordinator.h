/// \file coordinator.h
/// The multi-process build driver: partitions the merge plan's frontier
/// across N forked worker processes (distrib/shard_worker.h, one shard
/// artifact each), merges the shard roots through the same MutualTopK
/// machinery via core::MergeSource handles, and finishes with pruning and
/// (optionally) a serving core::Matcher — producing tuples **bitwise
/// identical** to the single-process MultiEmPipeline::Run, because every
/// plan node is a pure function of its children no matter which process
/// executes it.
///
/// Timeline of Build():
///   1. scan the work dir: a shard whose manifest already exists (from an
///      earlier coordinator process that crashed or was killed after the
///      worker finished) is a reuse candidate and is NOT re-forked; all
///      other workers fork now (before any ThreadPool exists — see
///      util/subprocess.h for the multithreaded-fork hazard);
///   2. while they run, replay phases S and R in-process through the
///      pipeline's own steps (core::SelectAttributes, then
///      core::EmbedSources with no sources: the encoder refit only) — the
///      coordinator needs the fitted encoder for the final Matcher, and
///      uses the selection to cross-check every shard; reuse candidates
///      are then validated against the fresh fit — a stale or foreign
///      shard is deleted and its worker forked after all;
///   3. reap each worker with a timeout; a worker that died, hung, or left
///      no complete shard artifact is SIGKILLed, reaped, and retried up to
///      `worker_retry.max_attempts` attempts in all under its deterministic
///      backoff — failures degrade to a clean Status, never a zombie or a
///      hang;
///   4. open the shard artifacts (mmap-preferred), assemble the global
///      embedding store from their base matrices, seed the plan slots with
///      handles (resident for frontier leaves, spill handles for worker
///      roots) and the merge stats with the workers' per-node counters, and
///      execute the remaining top of the plan (core::ExecuteMergePlan folds
///      all counters into the per-level shape);
///   5. prune, and optionally assemble the Matcher.
///
/// Before step 1, components are resolved by core::ResolveComponents from
/// the config's names, as MultiEmPipeline::Run resolves them, so a config
/// the pipeline rejects fails before any worker is forked. Builder-injected
/// component instances are not supported across processes.

#ifndef MULTIEM_DISTRIB_COORDINATOR_H_
#define MULTIEM_DISTRIB_COORDINATOR_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/pipeline.h"
#include "table/table.h"
#include "util/retry.h"
#include "util/status.h"

namespace multiem::distrib {

struct CoordinatorOptions {
  /// Worker processes to fork (>= 1; clamped to the number of frontier
  /// nodes, i.e. at most one worker per source table).
  size_t num_workers = 2;
  /// Directory for shard artifacts: one `shard_<w>/` per worker. Created
  /// if missing; left on disk for inspection (callers own cleanup).
  std::string work_dir;
  /// Threads inside each worker (its private pool). The merges, and so the
  /// tuples, do not depend on it.
  size_t worker_threads = 1;
  /// Per-worker reap deadline. A worker still running when it expires is
  /// SIGKILLed and counts as a failed attempt. < 0 waits forever.
  int64_t worker_timeout_ms = 10 * 60 * 1000;
  /// Attempts per worker (`max_attempts`: the first fork plus one re-fork
  /// after a crash, timeout or incomplete shard by default) and the backoff
  /// between them (util/retry.h). The seed is mixed with the worker index,
  /// so retry timing is deterministic per worker yet decorrelated across
  /// workers.
  util::RetryPolicy worker_retry = {.max_attempts = 2,
                                    .initial_backoff_ms = 50,
                                    .max_backoff_ms = 1000,
                                    .multiplier = 2.0,
                                    .jitter = 0.25,
                                    .jitter_seed = 0};
  /// Reuse a shard whose manifest already sits in the work dir instead of
  /// rebuilding it — the crash-restart path: a coordinator process killed
  /// after its workers finished picks their shards back up on the next
  /// Build() over the same inputs. Every reused shard is validated against
  /// this run's plan, assignment, and attribute selection first; anything
  /// stale or foreign is deleted and rebuilt. Disable to force a cold
  /// build.
  bool reuse_shards = true;
  /// Assemble a serving Matcher over the integrated table (like
  /// RunContext::build_matcher).
  bool build_matcher = false;

  // --- Fault injection (tests/CI only) ---
  /// SIGKILL this worker right after its first fork (retry must recover).
  /// No effect when the worker's shard is reused (it never forks).
  size_t kill_worker = static_cast<size_t>(-1);
  /// Make this worker hang on its first attempt (timeout must reap it).
  /// No effect when the worker's shard is reused.
  size_t hang_worker = static_cast<size_t>(-1);
};

/// Counters of one distributed build.
struct DistributedBuildStats {
  size_t workers = 0;          ///< effective worker count after clamping
  size_t frontier_nodes = 0;   ///< plan nodes handed to workers
  size_t retries = 0;          ///< failed worker attempts that were re-forked
  size_t shards_reused = 0;    ///< completed shards adopted from a prior run
  double worker_seconds = 0.0; ///< first fork -> last successful reap
  double merge_seconds = 0.0;  ///< coordinator-side top-of-plan merging
  double total_seconds = 0.0;
};

/// Everything a distributed build produces: the pipeline's result (tuples,
/// selection, merge and prune counters, optional matcher) plus the
/// distribution counters. `run.timings` and `run.approx_peak_bytes` keep
/// their defaults; `distrib` times a distributed build.
struct DistributedBuildResult {
  core::PipelineResult run;
  DistributedBuildStats distrib;
};

/// Drives one multi-process build. Stateless across Build() calls apart
/// from config/options; see the file comment for the execution timeline and
/// the determinism contract.
class Coordinator {
 public:
  Coordinator(core::MultiEmConfig config, CoordinatorOptions options)
      : config_(std::move(config)), options_(std::move(options)) {}

  /// Runs the distributed pipeline over `tables` (same input contract as
  /// MultiEmPipeline::Run: >= 2 non-empty tables, unique names, one
  /// schema). Fork-based — call from an effectively single-threaded
  /// process (util/subprocess.h). POSIX only (Unimplemented elsewhere).
  util::Result<DistributedBuildResult> Build(
      const std::vector<table::Table>& tables) const;

 private:
  core::MultiEmConfig config_;
  CoordinatorOptions options_;
};

}  // namespace multiem::distrib

#endif  // MULTIEM_DISTRIB_COORDINATOR_H_
