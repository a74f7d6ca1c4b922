#ifndef MULTIEM_CORE_TWO_TABLE_MERGER_H_
#define MULTIEM_CORE_TWO_TABLE_MERGER_H_

#include <cstddef>

#include "ann/index_factory.h"
#include "ann/mutual_topk.h"
#include "core/config.h"
#include "core/merge_table.h"
#include "util/io.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace multiem::core {

/// κ of the "hybrid" index's cost rule: a merge of n_l x n_r items scans
/// exactly when n_l * n_r <= κ * (n_l + n_r) * hnsw_ef_construction *
/// hnsw_m, that is, while the scan's distance count stays within κ of what
/// the two index builds cost. bench_ann_micro's "calibration" section times
/// both routes across merge shapes; docs/API.md states the crossover.
inline constexpr double kHybridScanFactor = 4.0;

/// The mutual top-K options (Eq. 1 knobs) a run config implies: k, the
/// distance cap m, the cosine metric, and the per-merge route choice
/// (`exact_scan_budget`): every merge scans under fp32 "brute_force",
/// merges under the cost rule scan under fp32 "hybrid", and every other
/// config (quantized, "hnsw", a custom index name) builds indexes. Shared by
/// TwoTableMerger::Merge and Matcher::AddTable, so every build path and
/// serve-time ingestion apply exactly the same matching standard.
ann::MutualTopKOptions MutualOptionsFromConfig(const MultiEmConfig& config);

/// Counters of one executed merge node — TwoTableMerger::Merge fills the
/// three merge counters; ExecuteMergePlan sets `node` and gathers them into
/// MergeStats, which shard workers ship back (MEMSHARD "stats" section).
struct MergeNodeStats {
  size_t node = 0;
  size_t mutual_pairs = 0;    ///< |P_m| of Eq. 1 after the distance cap.
  size_t merged_items = 0;    ///< items of the output that absorbed a match
  size_t carried_items = 0;   ///< items carried over unmatched
  /// Execution attempts this node's result cost (util::Retry attempt counts
  /// for distributed workers; 1 for a first-try in-process execution).
  size_t attempts = 1;
};

/// The one codec of a MergeNodeStats row: its five fields as u64, in field
/// order. A MEMSHARD "stats" row and the head of a checkpoint journal node
/// record are exactly these bytes.
void WriteNodeStats(util::ByteWriter& out, const MergeNodeStats& stats);

/// Reads one row written by WriteNodeStats. Without `has_attempts` it reads
/// the four-column row of MEMSHARD v1, and `attempts` stays 1.
util::Status ReadNodeStats(util::ByteReader& in, bool has_attempts,
                           MergeNodeStats* out);

/// Algorithm 3 of the paper: merges two merge tables into one.
///
/// Step 1 finds mutual top-K pairs between the items of E_i and E_j under
/// cosine distance with threshold m (an exact scan or two HNSW indexes,
/// chosen per merge by MutualOptionsFromConfig), over item vectors derived
/// from the store. Step 2 unions the matched items by transitivity — each
/// item already carries its own matched set from earlier hierarchies
/// (MatchedPairs(E_i) in the paper) — and carries every unmatched item into
/// the output unchanged. The output holds member lists only.
class TwoTableMerger {
 public:
  /// `store` supplies the base entity embeddings every item vector is
  /// derived from.
  /// `index_factory` builds the two ANN indexes of each merge that does not
  /// scan exactly — typically `IndexFactories().Create(config.index_name,
  /// config)`. Both are non-owning and must outlive the merger.
  TwoTableMerger(const MultiEmConfig& config,
                 const EntityEmbeddingStore* store,
                 const ann::VectorIndexFactory& index_factory)
      : config_(config), store_(store), index_factory_(&index_factory) {}

  /// Merges `a` and `b`. `pool` parallelizes the merge end to end: an exact
  /// scan fans its row blocks out; otherwise the two side indexes build
  /// concurrently with the pool threaded into their AddBatch (large HNSW
  /// builds insert in parallel), and the ANN queries of both search
  /// directions fan out under one util::TaskGroup. This is safe even when
  /// the caller itself runs inside a pool task (ExecuteMergePlan submits a
  /// level's pairs and their inner work to the same pool — Section III-E).
  MergeTable Merge(const MergeTable& a, const MergeTable& b,
                   util::ThreadPool* pool = nullptr,
                   MergeNodeStats* stats = nullptr) const;

  /// The store every table this merger reads must be valid against.
  const EntityEmbeddingStore& store() const { return *store_; }

 private:
  MultiEmConfig config_;
  const EntityEmbeddingStore* store_;
  const ann::VectorIndexFactory* index_factory_;
};

}  // namespace multiem::core

#endif  // MULTIEM_CORE_TWO_TABLE_MERGER_H_
