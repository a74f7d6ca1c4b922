/// \file merge_plan.h
/// The Algorithm 2 merge schedule, reified as a deterministic binary tree,
/// plus its executor.
///
/// MergePlan::Build draws the seeded per-level pairing once, up front, and
/// records the result as a tree: leaves 0..S-1 are the input tables, each
/// internal node is the pairwise merge of two earlier nodes, appended level
/// by level in pair order. Because every internal node's table is a pure
/// function of its two children (TwoTableMerger::Merge consults only the
/// two inputs and the base embedding store), *any* topological execution
/// order of the tree produces bitwise-identical tables — which is what lets
/// N worker processes each execute a disjoint subtree and a coordinator
/// finish the top, with output identical to the single-process run
/// (src/distrib/coordinator.h).
///
/// ExecuteMergePlan is the one schedule loop and the only merge entry
/// point: the pipeline's in-memory and spilled merging phases, shard
/// workers, and the coordinator all call it, differing only in their
/// MergeExecOptions. Whichever of them spills plan node n writes it to one
/// file name, SpillFileName(n).

#ifndef MULTIEM_CORE_MERGE_PLAN_H_
#define MULTIEM_CORE_MERGE_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/merge_source.h"
#include "core/run_context.h"
#include "core/two_table_merger.h"
#include "util/io.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace multiem::core {

class CheckpointLog;  // core/checkpoint.h

/// One node of a merge plan: a leaf (input table) or the pairwise merge of
/// two earlier nodes. Node ids order topologically: children always have
/// smaller ids than their parent, and within a level ids follow pair order.
struct MergePlanNode {
  static constexpr size_t kNone = static_cast<size_t>(-1);
  size_t left = kNone;    ///< kNone for leaves
  size_t right = kNone;
  size_t level = kNone;   ///< hierarchy level producing this node; kNone for leaves
  bool is_leaf() const { return left == kNone; }
};

/// One hierarchy level of the plan.
struct MergePlanLevel {
  size_t tables_in = 0;                   ///< live tables entering the level
  std::vector<size_t> pair_nodes;         ///< merge nodes, in pair order
  size_t carried = MergePlanNode::kNone;  ///< node carried unmerged (odd count)
};

/// Deterministic function of (num_tables, seed): seed ^ "MERG", one
/// Fisher-Yates shuffle of the live list per level, consecutive pairs, odd
/// table carried last.
class MergePlan {
 public:
  static MergePlan Build(size_t num_tables, uint64_t seed);

  size_t num_leaves() const { return num_leaves_; }
  size_t num_nodes() const { return nodes_.size(); }
  /// The integrated table's node. kNone for an empty plan; the single leaf
  /// when num_tables == 1.
  size_t root() const { return root_; }
  const MergePlanNode& node(size_t id) const { return nodes_[id]; }
  const std::vector<MergePlanLevel>& levels() const { return levels_; }

  /// Node ids live at the start of hierarchy level `level`, in input-list
  /// order (level 0: all leaves; levels().size(): just the root). A prefix
  /// cut of these frontiers is how the coordinator partitions work.
  std::vector<size_t> LiveNodesAtLevel(size_t level) const;

  /// Leaf ids of the subtree rooted at `id`, ascending.
  std::vector<size_t> SubtreeLeaves(size_t id) const;

 private:
  size_t num_leaves_ = 0;
  size_t root_ = MergePlanNode::kNone;
  std::vector<MergePlanNode> nodes_;
  std::vector<MergePlanLevel> levels_;
};

/// Counters of the merging phase — the one stats type of every merge: the
/// pipeline's PipelineResult::merge_stats, the coordinator's
/// DistributedBuildResult::merge_stats, and what shard workers ship back.
/// ExecuteMergePlan appends to `nodes` and the spill counters, then refolds
/// `levels` and `total_mutual_pairs` from every node present — so a caller
/// that pre-seeds `nodes` (the coordinator, with its workers' counters) gets
/// the per-level shape of the whole plan.
struct MergeStats {
  /// One entry per plan level — the record PipelineObserver::OnMergeLevel
  /// receives; a level counts only the nodes in `nodes`, so a fully
  /// executed plan gives the complete per-level counters.
  std::vector<MergeLevelProgress> levels;
  size_t total_mutual_pairs = 0;
  /// Every pair node executed (or restored from a checkpoint), in
  /// completion order — deterministic only for sequential runs.
  std::vector<MergeNodeStats> nodes;
  size_t spill_files_written = 0;   ///< MEMMERGT files created (inputs + outputs)
  size_t spill_bytes_written = 0;   ///< total bytes of those files
  /// Max bytes one pair held: both inputs' and the output's member lists
  /// plus the two item-vector matrices the merge gathered.
  size_t peak_resident_bytes = 0;
};

/// "merge_<node>.mem": the one name of plan node `node`'s spill file under
/// MergeExecOptions::spill_dir, whether the node is a spilled leaf or a
/// merge output. It is stable across attempts and processes, which is what
/// checkpoints and the shard worker/coordinator handoff key on.
std::string SpillFileName(size_t node);

/// Policy of one ExecuteMergePlan run. The default is in-memory merging:
/// outputs stay resident, and a level's pairs merge concurrently when a
/// pool is given (Section III-E, "Merging in parallel"). Shard workers set
/// `targets` and `spill_dir` directly.
struct MergeExecOptions {
  /// Bounded-memory merging for corpora whose merge tables do not all fit
  /// in RAM: resident inputs are spilled first, every output is spilled to
  /// `spill_dir`, and pairs run one at a time, so at most one pair plus its
  /// output is resident. With `checkpoint` the run is crash-resumable.
  static MergeExecOptions Spilled(std::string spill_dir,
                                  CheckpointLog* checkpoint = nullptr);

  /// Nodes to materialize; empty means the plan root. Non-empty slots act
  /// as leaves: their subtrees are not descended into. Shard workers name
  /// their frontier roots here.
  std::vector<size_t> targets;

  /// When set, every merge output is written to
  /// `spill_dir`/SpillFileName(node) instead of kept resident, and pairs
  /// run one at a time. A spilled handle owns its file: a consumed input's
  /// file is deleted once its successor is written. Output handles left in
  /// the slots still own theirs — call MergeSource::RemoveBackingFile after
  /// loading a result to drop it.
  std::string spill_dir;

  /// Also spill every resident input handle before merging (requires
  /// `spill_dir`), releasing each table as it lands on disk.
  bool spill_inputs = false;

  /// When set (non-owning), execution is crash-resumable: every executed
  /// node is journaled (spill path + size + FNV-1a + counters, fsynced)
  /// right after its output lands, and before executing anything a restore
  /// pre-pass walks the plan from each target downward installing every
  /// journaled node whose spill still validates — covered subtrees are
  /// skipped entirely and their files removed, and invalid entries silently
  /// recompute. Requires `spill_dir`. See core/checkpoint.h.
  CheckpointLog* checkpoint = nullptr;
};

/// The one merge entry point (Algorithm 2). `slots` holds a handle per plan
/// node: leaves 0..S-1 are the input tables, and any further non-empty
/// slot is a pre-built node (the coordinator seeds its workers' outputs
/// this way). It is resized to plan.num_nodes() and consumed as the plan
/// executes; on success slots[t] holds each target's table — spilled or
/// resident per `options` — and the caller Acquires it. Every spilled slot
/// is loaded against merger.store(): a file naming an entity the store
/// lacks, or rows of another width, fails the run with InvalidArgument.
///
/// Missing nodes under the targets run level by level in plan order (node
/// ids are topological, so the schedule is deterministic); with resident
/// outputs a level's pairs run concurrently on `pool`. Every
/// executed node is a pure function of its two children, so the tables are
/// bitwise identical whichever options, process, or order produced them.
///
/// ctx.observer receives one OnMergeLevel per plan level up to the highest
/// target; ctx.cancel is polled before each level, and a fired token
/// returns Status::Cancelled with `stats->levels` cut to the levels that
/// finished. `stats` (optional) accumulates; see MergeStats.
util::Status ExecuteMergePlan(const MergePlan& plan,
                              std::vector<MergeSource>& slots,
                              const TwoTableMerger& merger,
                              const MergeExecOptions& options,
                              util::ThreadPool* pool = nullptr,
                              MergeStats* stats = nullptr,
                              const RunContext& ctx = {});

}  // namespace multiem::core

#endif  // MULTIEM_CORE_MERGE_PLAN_H_
