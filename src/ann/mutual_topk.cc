#include "ann/mutual_topk.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>

#include "util/logging.h"

namespace multiem::ann {

namespace {

std::unique_ptr<VectorIndex> BuildIndex(const embed::EmbeddingMatrix& vectors,
                                        const VectorIndexFactory& factory,
                                        Metric metric,
                                        util::ThreadPool* pool) {
  std::unique_ptr<VectorIndex> index = factory.Create(vectors.dim(), metric);
  index->AddBatch(vectors, pool);
  return index;
}

}  // namespace

std::vector<MutualPair> MutualTopK(const embed::EmbeddingMatrix& left,
                                   const embed::EmbeddingMatrix& right,
                                   const VectorIndexFactory& index_factory,
                                   const MutualTopKOptions& options,
                                   util::ThreadPool* pool) {
  std::vector<MutualPair> out;
  if (left.num_rows() == 0 || right.num_rows() == 0 || options.k == 0) {
    return out;
  }
  // The mutuality check below packs (right row, left row) into one 64-bit
  // key, 32 bits each. Fail fast rather than silently colliding keys (which
  // would fabricate mutual pairs) on inputs beyond that packing.
  if ((static_cast<uint64_t>(left.num_rows() - 1) >> 32) != 0 ||
      (static_cast<uint64_t>(right.num_rows() - 1) >> 32) != 0) {
    MULTIEM_LOG(kError) << "MutualTopK: table exceeds 2^32 rows ("
                        << left.num_rows() << " x " << right.num_rows()
                        << "); the 32-bit pair-key packing would collide";
    std::abort();
  }

  // Index construction dominates the cost of small merges (insertion beams
  // are wider than search beams), and the two sides are independent — build
  // them concurrently as one task each. The pool is also threaded into each
  // build: for batches past HnswConfig::parallel_batch_min,
  // HnswIndex::AddBatch inserts concurrently (lock-striped link updates), so
  // one big side no longer pins the build phase to a single core.
  std::unique_ptr<VectorIndex> right_index;
  std::unique_ptr<VectorIndex> left_index;
  const bool parallel = pool != nullptr && pool->num_threads() > 1;
  if (parallel) {
    util::TaskGroup build_group(*pool);
    pool->Submit(build_group, [&] {
      right_index = BuildIndex(right, index_factory, options.metric, pool);
    });
    pool->Submit(build_group, [&] {
      left_index = BuildIndex(left, index_factory, options.metric, pool);
    });
    build_group.Wait();
  } else {
    right_index = BuildIndex(right, index_factory, options.metric, nullptr);
    left_index = BuildIndex(left, index_factory, options.metric, nullptr);
  }

  // topK(e) for every left row against the right index, and vice versa. Both
  // directions are submitted under one task group so they overlap; the
  // helping Wait() makes this safe even when MutualTopK itself runs inside a
  // pool task (a pair-merge of a parallel ExecuteMergePlan level).
  std::vector<std::vector<Neighbor>> left_to_right(left.num_rows());
  std::vector<std::vector<Neighbor>> right_to_left(right.num_rows());
  auto search_left = [&](size_t i) {
    left_to_right[i] = right_index->Search(left.Row(i), options.k);
  };
  auto search_right = [&](size_t j) {
    right_to_left[j] = left_index->Search(right.Row(j), options.k);
  };
  if (parallel) {
    util::TaskGroup group(*pool);
    util::ParallelApply(*pool, group, left.num_rows(), search_left,
                        /*min_block_size=*/16);
    util::ParallelApply(*pool, group, right.num_rows(), search_right,
                        /*min_block_size=*/16);
    group.Wait();
  } else {
    for (size_t i = 0; i < left.num_rows(); ++i) search_left(i);
    for (size_t j = 0; j < right.num_rows(); ++j) search_right(j);
  }

  // Sort the right->left relation once and binary-search it per candidate:
  // one flat allocation and cache-friendly probes, versus the hash set this
  // replaced (a heap node per entry on the merge path's second-hottest
  // loop).
  std::vector<uint64_t> right_picks;
  right_picks.reserve(right.num_rows() * options.k);
  for (size_t j = 0; j < right.num_rows(); ++j) {
    for (const Neighbor& n : right_to_left[j]) {
      right_picks.push_back(static_cast<uint64_t>(j) << 32 |
                            static_cast<uint64_t>(n.id));
    }
  }
  std::sort(right_picks.begin(), right_picks.end());

  for (size_t i = 0; i < left.num_rows(); ++i) {
    for (const Neighbor& n : left_to_right[i]) {
      if (n.distance > options.max_distance) continue;
      uint64_t key = static_cast<uint64_t>(n.id) << 32 |
                     static_cast<uint64_t>(i);
      if (std::binary_search(right_picks.begin(), right_picks.end(), key)) {
        out.push_back({i, n.id, n.distance});
      }
    }
  }
  std::sort(out.begin(), out.end(), [](const MutualPair& a, const MutualPair& b) {
    if (a.left != b.left) return a.left < b.left;
    return a.right < b.right;
  });
  return out;
}

}  // namespace multiem::ann
