#ifndef MULTIEM_ANN_INDEX_H_
#define MULTIEM_ANN_INDEX_H_

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ann/metric.h"
#include "embed/embedding.h"
#include "util/status.h"

namespace multiem::util {
class ThreadPool;
}  // namespace multiem::util

namespace multiem::ann {

/// One search hit: index of the stored vector and its distance to the query.
struct Neighbor {
  size_t id;
  float distance;

  friend bool operator==(const Neighbor& a, const Neighbor& b) {
    return a.id == b.id && a.distance == b.distance;
  }
};

/// Instrumentation counters of one search call, in the style of pbbsbench's
/// recall harness: how much graph the query actually touched. Exact indexes
/// report their full scan; the default SearchWithStats reports zeros
/// ("unknown").
struct SearchStats {
  /// Nodes whose adjacency was expanded (greedy hops + beam pops); for a
  /// linear scan, the number of stored vectors.
  size_t visited = 0;
  /// Distance computations performed.
  size_t distance_evals = 0;
};

/// Byte-level split of an index's footprint, so the memory-accounting bench
/// can report the quantized code plane separately from the retained fp32
/// originals instead of lumping everything into one SizeBytes() number.
struct MemoryBreakdown {
  /// Retained fp32 vector payload (originals kept for rerank/construction).
  size_t fp32_bytes = 0;
  /// Quantized codes + per-vector parameters (0 when unquantized).
  size_t quantized_bytes = 0;
  /// Graph/auxiliary structure (links, offsets, levels, stored norms).
  size_t graph_bytes = 0;

  size_t total() const { return fp32_bytes + quantized_bytes + graph_bytes; }
  /// Bytes the search loop actually touches per candidate: the quantized
  /// codes when present, the fp32 payload otherwise, plus the graph.
  size_t hot_bytes() const {
    return (quantized_bytes > 0 ? quantized_bytes : fp32_bytes) + graph_bytes;
  }
};

/// Common interface of the nearest-neighbor indexes (HNSW and brute force),
/// so the merging phase can swap implementations (`index_name =
/// "brute_force"` in MultiEmConfig selects the exact-KNN ablation).
class VectorIndex {
 public:
  virtual ~VectorIndex() = default;

  /// Inserts a vector; its id is the insertion order (0-based). Always
  /// single-threaded: callers must not run Add concurrently with anything
  /// else on the same index.
  virtual void Add(std::span<const float> vec) = 0;

  /// Inserts every row of `vectors` in row order on the calling thread.
  void AddBatch(const embed::EmbeddingMatrix& vectors) {
    AddBatch(vectors, nullptr);
  }

  /// Inserts every row of `vectors`, fanning the work out across `pool` when
  /// the implementation supports it (HnswIndex inserts each round's rows in
  /// parallel, BruteForceIndex copies rows in parallel); both build the same
  /// index on any pool. Row i always gets id `size-before + i`. A null pool — or an
  /// implementation without a parallel path, like this default — degrades to
  /// the serial row loop. Safe to call from inside a pool task (the nested
  /// work runs under its own util::TaskGroup); must not overlap with any
  /// other call on the same index, including Search.
  virtual void AddBatch(const embed::EmbeddingMatrix& vectors,
                        util::ThreadPool* pool) {
    (void)pool;
    for (size_t i = 0; i < vectors.num_rows(); ++i) Add(vectors.Row(i));
  }

  /// Top-`k` nearest stored vectors to `query`, sorted by ascending distance
  /// (ties broken by id). Returns fewer than k when the index is smaller.
  virtual std::vector<Neighbor> Search(std::span<const float> query,
                                       size_t k) const = 0;

  /// Search with an explicit beam width and per-query instrumentation.
  /// `ef` = 0 selects the implementation's default (and is always raised to
  /// at least k); exact indexes ignore it. `stats` (optional) receives the
  /// visited/distance-eval counters of this one call. Implementations
  /// without instrumentation keep this default, which zeroes the counters
  /// and degrades to Search. Must be as thread-safe as Search.
  virtual std::vector<Neighbor> SearchWithStats(std::span<const float> query,
                                                size_t k, size_t ef,
                                                SearchStats* stats) const {
    (void)ef;
    if (stats != nullptr) *stats = SearchStats{};
    return Search(query, k);
  }

  /// Deep copy of the index, or nullptr when the implementation does not
  /// support cloning. Clone only reads, so it is safe to run concurrently
  /// with Search on this index; the returned copy is private to the caller.
  /// This is the insert-under-readers contract of the serving layer: an
  /// index that readers hold is never mutated — the writer clones it,
  /// inserts into the clone (CloneAndAdd below), and publishes the clone
  /// atomically (see core::Matcher). Implementations that cannot clone
  /// force the serving layer back to a full rebuild, which is correct but
  /// slower.
  virtual std::unique_ptr<VectorIndex> Clone() const { return nullptr; }

  /// Clone() with every row of `rows` inserted by AddBatch(rows, pool), or
  /// nullptr when the implementation cannot clone: the serving layer's
  /// clone-and-insert step, in one call. Only reads this index, like
  /// Clone. This default clones, then inserts, so a buffer the insert
  /// grows is copied twice; implementations that can size the copy for the
  /// batch override it (HnswIndex, BruteForceIndex) and copy each buffer
  /// once, at its final size, with a result equal to this default's.
  virtual std::unique_ptr<VectorIndex> CloneAndAdd(
      const embed::EmbeddingMatrix& rows, util::ThreadPool* pool) const {
    std::unique_ptr<VectorIndex> copy = Clone();
    if (copy != nullptr) copy->AddBatch(rows, pool);
    return copy;
  }

  /// Number of stored vectors.
  virtual size_t size() const = 0;

  /// Vector dimensionality this index was built for, or 0 when the
  /// implementation predates this accessor ("unknown"). Callers use it for
  /// cross-checks (e.g. a loaded artifact's index against its entity
  /// table); implementations should override.
  virtual size_t dim() const { return 0; }

  /// Approximate heap footprint (memory-accounting bench). Includes every
  /// plane the index holds — fp32 payload, quantized codes, and graph — i.e.
  /// MemoryUsage().total() for implementations that override both.
  virtual size_t SizeBytes() const = 0;

  /// SizeBytes() split by plane. The default attributes everything to
  /// fp32_bytes, which is exact for unquantized implementations.
  virtual MemoryBreakdown MemoryUsage() const {
    MemoryBreakdown breakdown;
    breakdown.fp32_bytes = SizeBytes();
    return breakdown;
  }

  /// The metric this index was built with.
  virtual Metric metric() const = 0;

  /// Stable artifact tag of this implementation ("hnsw", "brute_force");
  /// empty for implementations without a persistence story. The tag is
  /// written into saved artifacts and selects the built-in loader when
  /// ann::LoadVectorIndex reopens one (see index_io.h).
  virtual std::string_view kind() const { return {}; }

  /// Persists the index to `path` as a MEMINDEX artifact (byte-level spec in
  /// docs/FORMATS.md). Implementations without persistence keep this
  /// default, which fails with FailedPrecondition instead of writing.
  virtual util::Status Save(const std::string& path) const {
    (void)path;
    return util::Status::FailedPrecondition(
        "this VectorIndex implementation does not support Save");
  }
};

}  // namespace multiem::ann

#endif  // MULTIEM_ANN_INDEX_H_
