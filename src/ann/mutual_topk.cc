#include "ann/mutual_topk.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <span>

#include "util/logging.h"

namespace multiem::ann {

namespace {

// The mutuality checks pack a row index into 32 bits (MutualTopK's pair
// key, ExactMutualTopK's list ids). Fail fast rather than silently
// colliding keys (which would fabricate mutual pairs) on inputs beyond that
// packing.
void CheckRowsFit32Bits(size_t left_rows, size_t right_rows) {
  if ((static_cast<uint64_t>(left_rows - 1) >> 32) != 0 ||
      (static_cast<uint64_t>(right_rows - 1) >> 32) != 0) {
    MULTIEM_LOG(kError) << "MutualTopK: table exceeds 2^32 rows ("
                        << left_rows << " x " << right_rows
                        << "); the 32-bit pair-key packing would collide";
    std::abort();
  }
}

std::unique_ptr<VectorIndex> BuildIndex(const embed::EmbeddingMatrix& vectors,
                                        const VectorIndexFactory& factory,
                                        Metric metric,
                                        util::ThreadPool* pool) {
  std::unique_ptr<VectorIndex> index = factory.Create(vectors.dim(), metric);
  index->AddBatch(vectors, pool);
  return index;
}

void SortByRows(std::vector<MutualPair>& pairs) {
  std::sort(pairs.begin(), pairs.end(),
            [](const MutualPair& a, const MutualPair& b) {
              if (a.left != b.left) return a.left < b.left;
              return a.right < b.right;
            });
}

// Tile shape of the exact scan: a worker takes kRowTile left rows at a time
// and sweeps the right rows kColTile at a time, so a tile's rows stay in
// cache while every pair of it is scored.
constexpr size_t kRowTile = 32;
constexpr size_t kColTile = 256;

// One top-k entry: a distance and the row id on the other side.
struct Candidate {
  float distance;
  uint32_t id;
};

// (distance, id) lexicographic: the total order BruteForceIndex::Search
// ranks by, so a top-k under it is unique.
inline bool Precedes(float distance, uint32_t id, const Candidate& c) {
  return distance < c.distance || (distance == c.distance && id < c.id);
}

// The top-k lists of `owners` rows, k slots each in one flat array, every
// list sorted under Precedes.
class TopKLists {
 public:
  TopKLists(size_t owners, size_t k)
      : k_(k), slots_(owners * k), sizes_(owners, 0) {}

  // Keeps (distance, id) in `owner`'s list iff it is among the k first.
  void Offer(size_t owner, float distance, uint32_t id) {
    Candidate* list = slots_.data() + owner * k_;
    size_t pos = sizes_[owner];
    if (pos == k_) {
      if (!Precedes(distance, id, list[k_ - 1])) return;
      --pos;
    } else {
      ++sizes_[owner];
    }
    for (; pos > 0 && Precedes(distance, id, list[pos - 1]); --pos) {
      list[pos] = list[pos - 1];
    }
    list[pos] = {distance, id};
  }

  std::span<const Candidate> List(size_t owner) const {
    return {slots_.data() + owner * k_, sizes_[owner]};
  }

  bool Contains(size_t owner, uint32_t id) const {
    for (const Candidate& c : List(owner)) {
      if (c.id == id) return true;
    }
    return false;
  }

 private:
  size_t k_;
  std::vector<Candidate> slots_;
  std::vector<uint32_t> sizes_;
};

std::vector<float> SquaredNorms(const embed::EmbeddingMatrix& rows) {
  std::vector<float> out(rows.num_rows());
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = embed::Dot(rows.Row(i), rows.Row(i));
  }
  return out;
}

}  // namespace

bool ScansExactly(const MutualTopKOptions& options, size_t left_rows,
                  size_t right_rows) {
  if (options.metric != Metric::kCosine ||
      !(options.exact_scan_budget > 0.0)) {
    return false;
  }
  // In double, where no product of counts and budget wraps, and an
  // infinite budget scans every merge.
  return static_cast<double>(left_rows) * static_cast<double>(right_rows) <=
         options.exact_scan_budget * (static_cast<double>(left_rows) +
                                      static_cast<double>(right_rows));
}

std::vector<MutualPair> ExactMutualTopK(const embed::EmbeddingMatrix& left,
                                        const embed::EmbeddingMatrix& right,
                                        const MutualTopKOptions& options,
                                        util::ThreadPool* pool) {
  std::vector<MutualPair> out;
  const size_t n_left = left.num_rows();
  const size_t n_right = right.num_rows();
  if (n_left == 0 || n_right == 0 || options.k == 0) return out;
  CheckRowsFit32Bits(n_left, n_right);
  if (options.metric != Metric::kCosine || left.dim() != right.dim()) {
    MULTIEM_LOG(kError) << "ExactMutualTopK: needs the cosine metric and "
                           "equal dimensions";
    std::abort();
  }
  // BruteForceIndex caches each stored row's Dot(row, row) and takes the
  // query's the same way.
  const std::vector<float> left_sq = SquaredNorms(left);
  const std::vector<float> right_sq = SquaredNorms(right);
  const float max_distance = options.max_distance;

  // A pair farther than m can never be emitted, and dropping it from both
  // lists keeps every pair within m that the full lists would rank first:
  // a list's entries within m are always its head.
  TopKLists rows(n_left, std::min(options.k, n_right));
  auto scan_block = [&](size_t block, TopKLists& cols) {
    const size_t i_end = std::min(n_left, (block + 1) * kRowTile);
    for (size_t j0 = 0; j0 < n_right; j0 += kColTile) {
      const size_t j_end = std::min(n_right, j0 + kColTile);
      for (size_t i = block * kRowTile; i < i_end; ++i) {
        const std::span<const float> l = left.Row(i);
        for (size_t j = j0; j < j_end; ++j) {
          const float distance =
              1.0f - embed::CosineSimilarityFromParts(
                         embed::Dot(l, right.Row(j)), left_sq[i], right_sq[j]);
          if (distance > max_distance) continue;
          rows.Offer(i, distance, static_cast<uint32_t>(j));
          cols.Offer(j, distance, static_cast<uint32_t>(i));
        }
      }
    }
  };

  // Workers pull row blocks off one counter; each owns its column lists.
  // Row lists are disjoint per block, so they need no merge.
  const size_t num_blocks = (n_left + kRowTile - 1) / kRowTile;
  const size_t workers =
      pool != nullptr ? std::min(pool->num_threads(), num_blocks) : 1;
  const size_t col_k = std::min(options.k, n_left);
  std::vector<TopKLists> cols(workers, TopKLists(n_right, col_k));
  std::atomic<size_t> next_block{0};
  auto work = [&](TopKLists& worker_cols) {
    for (size_t b; (b = next_block.fetch_add(1, std::memory_order_relaxed)) <
                   num_blocks;) {
      scan_block(b, worker_cols);
    }
  };
  if (workers > 1) {
    util::TaskGroup group(*pool);
    for (TopKLists& worker_cols : cols) {
      pool->Submit(group, [&work, &worker_cols] { work(worker_cols); });
    }
    group.Wait();
    for (size_t w = 1; w < cols.size(); ++w) {
      for (size_t j = 0; j < n_right; ++j) {
        for (const Candidate& c : cols[w].List(j)) {
          cols[0].Offer(j, c.distance, c.id);
        }
      }
    }
  } else {
    work(cols[0]);
  }

  for (size_t i = 0; i < n_left; ++i) {
    for (const Candidate& c : rows.List(i)) {
      if (cols[0].Contains(c.id, static_cast<uint32_t>(i))) {
        out.push_back({i, c.id, c.distance});
      }
    }
  }
  SortByRows(out);
  return out;
}

std::vector<MutualPair> MutualTopK(const embed::EmbeddingMatrix& left,
                                   const embed::EmbeddingMatrix& right,
                                   const VectorIndexFactory& index_factory,
                                   const MutualTopKOptions& options,
                                   util::ThreadPool* pool) {
  std::vector<MutualPair> out;
  if (left.num_rows() == 0 || right.num_rows() == 0 || options.k == 0) {
    return out;
  }
  CheckRowsFit32Bits(left.num_rows(), right.num_rows());
  if (ScansExactly(options, left.num_rows(), right.num_rows())) {
    return ExactMutualTopK(left, right, options, pool);
  }

  // Index construction dominates the cost of this route (insertion beams
  // are wider than search beams), and the two sides are independent — build
  // them concurrently as one task each. The pool is also threaded into each
  // build: past 1,024 nodes HnswIndex::AddBatch inserts each round's rows in
  // parallel, so one big side does not pin the build phase to one core.
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
  SortByRows(out);
  return out;
}

}  // namespace multiem::ann
