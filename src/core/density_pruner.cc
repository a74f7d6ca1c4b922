#include "core/density_pruner.h"

#include <algorithm>
#include <atomic>

#include "cluster/dbscan.h"

namespace multiem::core {

namespace {

/// Candidate tuples pruned per cancellation check / observer tick. Small
/// enough to cancel promptly, large enough to amortize the pool dispatch.
constexpr size_t kPruneBatchSize = 512;

}  // namespace

std::vector<eval::Tuple> DensityPruner::Prune(const MergeTable& integrated,
                                              const PruneContext& ctx,
                                              PruneStats* stats) const {
  // Collect candidate items (>= 2 members) up front so the parallel loop
  // indexes a dense list.
  std::vector<size_t> candidates;
  for (size_t i = 0; i < integrated.num_items(); ++i) {
    if (integrated.members(i).size() >= 2) candidates.push_back(i);
  }

  std::vector<eval::Tuple> pruned(candidates.size());
  std::atomic<size_t> outliers_removed{0};

  cluster::DbscanConfig dbscan;
  dbscan.eps = config_.eps;
  dbscan.min_pts = config_.min_pts;
  dbscan.metric = ann::Metric::kEuclidean;

  auto prune_one = [&](size_t c) {
    const std::vector<table::EntityId>& members =
        integrated.members(candidates[c]);
    if (!config_.enable_pruning) {
      pruned[c] = members;
      return;
    }
    // Gather member embeddings into a small local matrix (tuples are
    // tiny: at most ~S entities).
    embed::EmbeddingMatrix points(members.size(), ctx.store->dim());
    for (size_t i = 0; i < members.size(); ++i) {
      std::span<const float> row = ctx.store->Row(members[i]);
      std::copy(row.begin(), row.end(), points.Row(i).begin());
    }
    std::vector<cluster::PointRole> roles =
        cluster::ClassifyDensity(points, dbscan);
    eval::Tuple kept;
    size_t dropped = 0;
    for (size_t i = 0; i < roles.size(); ++i) {
      if (roles[i] == cluster::PointRole::kOutlier) {
        ++dropped;
      } else {
        kept.push_back(members[i]);
      }
    }
    outliers_removed.fetch_add(dropped, std::memory_order_relaxed);
    pruned[c] = std::move(kept);
  };

  // Batched sweep: each batch fans out over the pool as one task group
  // (ParallelFor), so concurrent pipeline runs sharing a pool cannot
  // over-wait on each other's batches; the cancellation token is polled
  // between batches so a fired token stops the phase within one batch of
  // work.
  size_t processed = 0;
  while (processed < candidates.size()) {
    if (ctx.run.cancelled()) break;
    size_t batch_end =
        std::min(processed + kPruneBatchSize, candidates.size());
    util::ParallelFor(
        ctx.pool, batch_end - processed,
        [&](size_t i) { prune_one(processed + i); },
        /*min_block_size=*/8);
    processed = batch_end;
    if (ctx.run.observer != nullptr) {
      ctx.run.observer->OnPruneProgress(processed, candidates.size());
    }
  }
  // On cancellation only the processed prefix is meaningful.
  pruned.resize(processed);

  std::vector<eval::Tuple> tuples;
  tuples.reserve(pruned.size());
  size_t tuples_dropped = 0;
  for (eval::Tuple& t : pruned) {
    if (t.size() >= 2) {
      tuples.push_back(std::move(t));
    } else {
      ++tuples_dropped;
    }
  }
  if (stats != nullptr) {
    stats->items_examined = processed;
    stats->outliers_removed = outliers_removed.load();
    stats->tuples_dropped = tuples_dropped;
  }
  return tuples;
}

}  // namespace multiem::core
