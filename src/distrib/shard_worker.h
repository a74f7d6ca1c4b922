/// \file shard_worker.h
/// The per-process build unit of the multi-process pipeline
/// (src/distrib/coordinator.h): one worker owns a contiguous slice of the
/// merge plan's frontier, runs embed -> select -> merge for the source
/// tables under that slice, and leaves a *shard artifact* on disk for the
/// coordinator to pick up:
///
///   <shard_dir>/merge_<node>.mem   one MEMMERGT table per assigned
///                                  non-leaf frontier root, named by
///                                  core::SpillFileName(node)
///   <shard_dir>/shard.mem          the MEMSHARD manifest, written LAST
///                                  (atomically) as the completion marker
///
/// Correctness rests on two facts. First, every corpus-dependent decision —
/// the encoder fit, attribute selection, the refit on the selected columns
/// — is a deterministic function of (tables, config), so each worker
/// replays it on the full corpus through the pipeline's own phase steps
/// (core::SelectAttributes, core::EmbedSources) instead of coordinating.
/// Second, each internal node of the MergePlan is a pure function of its
/// two children (core/merge_plan.h), so subtrees built in different
/// processes compose into bitwise-identical integrated tables.
///
/// Components are resolved by core::ResolveComponents from the config's
/// names, exactly as MultiEmPipeline::Run resolves them, so a worker
/// accepts and rejects the same configs; builder-injected component
/// instances cannot cross a process boundary and are not supported here.

#ifndef MULTIEM_DISTRIB_SHARD_WORKER_H_
#define MULTIEM_DISTRIB_SHARD_WORKER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/merge_plan.h"
#include "embed/embedding.h"
#include "table/table.h"
#include "util/io.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace multiem::distrib {

/// Magic + version of the MEMSHARD shard manifest (docs/FORMATS.md).
/// v2 widened the stats rows from 4 to 5 u64 columns, adding the per-node
/// execution attempt count (MergeNodeStats::attempts); v1 manifests still
/// open, with attempts defaulting to 1.
inline constexpr uint64_t kShardMagic = util::ArtifactMagic("MEMSHARD");
inline constexpr uint32_t kShardVersion = 2;

/// "shard_<worker>" — the shard directory name under the coordinator's
/// work dir.
std::string ShardDirName(size_t worker);

/// "shard.mem" — the manifest file inside a shard directory.
std::string ShardManifestName();

/// The slice of the merge plan one worker builds.
struct ShardAssignment {
  size_t worker = 0;
  /// Frontier node ids this worker materializes, in plan order. A leaf
  /// root contributes only its base embeddings (nothing to merge).
  std::vector<size_t> roots;
  /// Union of the roots' subtree leaves == the source tables this worker
  /// encodes, ascending. Derived from `roots`; carried for convenience.
  std::vector<size_t> sources;
};

/// Cuts the plan's frontier into `num_workers` contiguous chunks. The
/// frontier is the deepest level whose live-node count still is >=
/// min(num_workers, num_leaves), so every worker gets at least one node and
/// every source lands in exactly one shard. Returns one assignment per
/// effective worker (may be fewer than requested).
std::vector<ShardAssignment> PartitionPlan(const core::MergePlan& plan,
                                           size_t num_workers);

struct ShardWorkerOptions {
  /// Output directory (created if missing). Also receives the worker's
  /// intermediate spill files, which are deleted as they are consumed.
  std::string shard_dir;
  /// Parallelism inside this worker (null runs serially). The merges, and
  /// so the tuples, do not depend on it.
  util::ThreadPool* pool = nullptr;
};

/// Runs one worker's slice end to end and writes the shard artifact.
/// Typically called inside a forked child (util::Subprocess), but runs the
/// same in-process (tests). A config the pipeline rejects fails with the
/// same Status before `options.shard_dir` is created.
util::Status RunShardWorker(const core::MultiEmConfig& config,
                            const std::vector<table::Table>& tables,
                            const ShardAssignment& assignment,
                            const ShardWorkerOptions& options);

/// A parsed shard.mem manifest plus the shard's base matrices. The matrices
/// are zero-copy views over their loaded sections (heap blocks or the
/// mapped file), each kept alive by the views themselves.
struct ShardArtifact {
  uint64_t total_sources = 0;
  uint64_t seed = 0;
  uint64_t dim = 0;
  std::vector<uint64_t> covered_sources;
  std::vector<uint64_t> roots;
  std::vector<uint64_t> selected_columns;
  /// Per-merge-node counters of the worker's subtree executions.
  std::vector<core::MergeNodeStats> node_stats;
  /// Base embedding matrices, parallel to `covered_sources`.
  std::vector<embed::EmbeddingMatrix> bases;
};

/// Opens `<shard_dir>/shard.mem`. NotFound when the worker never completed
/// (the manifest is written last).
util::Result<ShardArtifact> OpenShardArtifact(
    const std::string& shard_dir,
    const util::ArtifactOpenOptions& options = {});

}  // namespace multiem::distrib

#endif  // MULTIEM_DISTRIB_SHARD_WORKER_H_
