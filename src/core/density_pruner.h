/// \file density_pruner.h
/// Density-based pruning, Section III-D / Algorithm 4 of the paper. Within
/// each candidate tuple, entities are classified as core, reachable, or
/// outlier (Definitions 3-5) by an eps/MinPts density test on their
/// embeddings, and outliers are dropped. Disabling this phase reproduces
/// the "MultiEM w/o DP" ablation row of Table IV. Registered in
/// core/registry.h as the default `pruner_name = "density"`.

#ifndef MULTIEM_CORE_DENSITY_PRUNER_H_
#define MULTIEM_CORE_DENSITY_PRUNER_H_

#include <vector>

#include "core/config.h"
#include "core/merge_table.h"
#include "core/pruner.h"
#include "eval/tuples.h"
#include "util/thread_pool.h"

namespace multiem::core {

/// Section III-D / Algorithm 4: density-based pruning of candidate tuples.
///
/// For every item of the integrated table with >= 2 members, member entities
/// are classified as core / reachable / outlier over their base embeddings
/// (Euclidean distance, radius eps, MinPts with self counted — sklearn
/// semantics, which the paper's implementation uses). Outliers are removed;
/// items that keep >= 2 members are emitted as final tuples. Items are
/// independent, so pruning partitions across the thread pool in parallel
/// mode (Section III-E). Work proceeds in fixed-size batches; the
/// cancellation token (if any) is polled between batches.
class DensityPruner : public Pruner {
 public:
  /// The store (and pool, and run session) arrive per call via PruneContext.
  explicit DensityPruner(const MultiEmConfig& config) : config_(config) {}

  /// Pruner interface: prunes `integrated` against ctx.store. With
  /// config.enable_pruning == false, returns every >=2-member item as-is
  /// (the "MultiEM w/o DP" ablation).
  std::vector<eval::Tuple> Prune(const MergeTable& integrated,
                                 const PruneContext& ctx,
                                 PruneStats* stats) const override;

 private:
  MultiEmConfig config_;
};

}  // namespace multiem::core

#endif  // MULTIEM_CORE_DENSITY_PRUNER_H_
