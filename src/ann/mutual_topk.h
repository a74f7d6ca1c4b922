#ifndef MULTIEM_ANN_MUTUAL_TOPK_H_
#define MULTIEM_ANN_MUTUAL_TOPK_H_

#include <cstddef>
#include <limits>
#include <vector>

#include "ann/index_factory.h"
#include "embed/embedding.h"
#include "util/thread_pool.h"

namespace multiem::ann {

/// A mutual top-K match between row `left` of the left matrix and row
/// `right` of the right matrix, at the given distance.
struct MutualPair {
  size_t left;
  size_t right;
  float distance;
};

/// The `MutualTopKOptions::exact_scan_budget` that scans every cosine merge.
inline constexpr double kAlwaysScan = std::numeric_limits<double>::infinity();

/// Options for the mutual top-K search of the merging phase (Eq. 1).
struct MutualTopKOptions {
  /// Top-K depth (paper default k = 1).
  size_t k = 1;
  /// Distance threshold m: pairs farther than this are discarded. Only an
  /// exact computation (ExactMutualTopK, or BruteForceIndexFactory)
  /// guarantees a distance of exactly 0 for bitwise-identical vectors;
  /// HNSW's normalized fast path can report ~1e-7 for duplicates, so a
  /// max_distance of 0 needs an exact route.
  float max_distance = 0.35f;
  Metric metric = Metric::kCosine;
  /// Which route computes a merge (see ScansExactly): a cosine merge of
  /// n_l x n_r rows runs ExactMutualTopK when
  /// n_l * n_r <= exact_scan_budget * (n_l + n_r), and builds two indexes
  /// with the factory otherwise. 0 (the default) always builds indexes;
  /// kAlwaysScan scans every cosine merge. core::MutualOptionsFromConfig
  /// derives it from `index_name` ("Merge index choice" in docs/API.md).
  double exact_scan_budget = 0.0;
};

/// True iff MutualTopK computes a `left_rows` x `right_rows` merge under
/// `options` with ExactMutualTopK rather than with two index builds. Depends
/// on nothing but its arguments, so every caller with the same options
/// chooses the same way.
bool ScansExactly(const MutualTopKOptions& options, size_t left_rows,
                  size_t right_rows);

/// Computes Eq. 1 of the paper:
///   P_m = { (e, e') | e' in topK(e) and e in topK(e') and dist(e, e') <= m }
/// When ScansExactly(options, ...) holds, by ExactMutualTopK; otherwise by
/// building one index per side with `index_factory` and intersecting the
/// two top-K relations. On the index route, with a `pool`, the two index
/// builds run concurrently (one task each) and the pool is threaded into
/// each build's AddBatch, so large sides insert in parallel too
/// (HnswIndex's insert rounds); the queries of both directions then
/// fan out under one util::TaskGroup. Safe to call from inside a pool task.
/// Pairs are returned sorted by (left, right); each (left, right) appears at
/// most once. Aborts (fail fast) when either side exceeds 2^32 rows — the
/// mutuality check packs a row pair into one 64-bit key.
std::vector<MutualPair> MutualTopK(const embed::EmbeddingMatrix& left,
                                   const embed::EmbeddingMatrix& right,
                                   const VectorIndexFactory& index_factory,
                                   const MutualTopKOptions& options,
                                   util::ThreadPool* pool = nullptr);

/// Exact Eq. 1 under the cosine metric in one pass over tiles of left x
/// right rows, with no index. Each pair's distance is computed once, with
/// BruteForceIndex::Search's arithmetic (1 - CosineSimilarityFromParts of
/// embed::Dot and the two squared norms, which are symmetric bit for bit),
/// and offered to its row's and its column's top-k under the (distance, id)
/// order. The pairs therefore equal, bit for bit, those of MutualTopK over
/// two fp32 BruteForceIndexes. Row blocks run on `pool`; each worker keeps
/// its own column lists, merged at the end, and a top-k under a total order
/// is unique, so the pairs do not depend on the thread count. Besides its
/// inputs it holds O((n_l + n_r) * k) per worker, never an n_l x n_r
/// buffer. `options.exact_scan_budget` is ignored; a metric other than
/// cosine aborts, as do more than 2^32 rows on either side. Safe to call
/// from inside a pool task.
std::vector<MutualPair> ExactMutualTopK(const embed::EmbeddingMatrix& left,
                                        const embed::EmbeddingMatrix& right,
                                        const MutualTopKOptions& options,
                                        util::ThreadPool* pool = nullptr);

}  // namespace multiem::ann

#endif  // MULTIEM_ANN_MUTUAL_TOPK_H_
