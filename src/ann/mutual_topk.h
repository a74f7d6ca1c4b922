#ifndef MULTIEM_ANN_MUTUAL_TOPK_H_
#define MULTIEM_ANN_MUTUAL_TOPK_H_

#include <cstddef>
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

/// Options for the mutual top-K search of the merging phase (Eq. 1).
struct MutualTopKOptions {
  /// Top-K depth (paper default k = 1).
  size_t k = 1;
  /// Distance threshold m: pairs farther than this are discarded. Only an
  /// exact index (BruteForceIndexFactory) guarantees a distance of exactly
  /// 0 for bitwise-identical vectors; HNSW's normalized fast path can
  /// report ~1e-7 for duplicates, so a max_distance of 0 needs the exact
  /// index.
  float max_distance = 0.35f;
  Metric metric = Metric::kCosine;
};

/// Computes Eq. 1 of the paper:
///   P_m = { (e, e') | e' in topK(e) and e in topK(e') and dist(e, e') <= m }
/// by building one index per side with `index_factory` and intersecting the
/// two top-K relations.
/// With a `pool`, the two index builds run concurrently (one task each) and
/// the pool is threaded into each build's AddBatch, so large sides insert in
/// parallel too (HnswIndex's lock-striped protocol); the queries of both
/// directions then fan out under one util::TaskGroup. Safe to call from
/// inside a pool task.
/// Pairs are returned sorted by (left, right); each (left, right) appears at
/// most once. Aborts (fail fast) when either side exceeds 2^32 rows — the
/// mutuality check packs a row pair into one 64-bit key.
std::vector<MutualPair> MutualTopK(const embed::EmbeddingMatrix& left,
                                   const embed::EmbeddingMatrix& right,
                                   const VectorIndexFactory& index_factory,
                                   const MutualTopKOptions& options,
                                   util::ThreadPool* pool = nullptr);

}  // namespace multiem::ann

#endif  // MULTIEM_ANN_MUTUAL_TOPK_H_
