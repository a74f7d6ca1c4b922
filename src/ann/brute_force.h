#ifndef MULTIEM_ANN_BRUTE_FORCE_H_
#define MULTIEM_ANN_BRUTE_FORCE_H_

#include <memory>
#include <string_view>
#include <vector>

#include "ann/index.h"
#include "ann/quant.h"

namespace multiem::util {
class ArtifactReader;  // util/io.h; only referenced by Load's signature
}  // namespace multiem::util

namespace multiem::ann {

/// Exact k-nearest-neighbor index by linear scan. O(n * dim) per query.
///
/// Serves two purposes: the recall oracle for HNSW in tests, and the index
/// behind the `index_name = "brute_force"` pipeline ablation. Cosine
/// queries divide one dot product by cached norms in double precision, so
/// bitwise-identical vectors get a distance of exactly 0 (they must survive
/// a `max_distance = 0` cap in MutualTopK).
///
/// AddBatch(pool) copies rows (and computes the cached norms) in parallel;
/// the result is bit-identical to the serial build, since row i always lands
/// at slot size-before + i.
class BruteForceIndex : public VectorIndex {
 public:
  /// `dim` is the vector dimensionality; all Add/Search calls must match it.
  /// With `quantization` != kNone the linear scan runs over the quantized
  /// codes and only the top `rerank_factor * k` candidates are re-scored
  /// with exact fp32 distances — the scan stays exact in ranking for any
  /// pair the approximation separates, and the rerank recovers the rest.
  BruteForceIndex(size_t dim, Metric metric,
                  Quantization quantization = Quantization::kNone,
                  size_t rerank_factor = 4);

  void Add(std::span<const float> vec) override;

  using VectorIndex::AddBatch;
  void AddBatch(const embed::EmbeddingMatrix& vectors,
                util::ThreadPool* pool) override;

  std::vector<Neighbor> Search(std::span<const float> query,
                               size_t k) const override;

  /// Exact search ignores `ef`; the stats report the full scan (`size()`
  /// nodes visited, `size()` distances) — the oracle cost the recall-vs-QPS
  /// sweeps compare against.
  std::vector<Neighbor> SearchWithStats(std::span<const float> query, size_t k,
                                        size_t ef,
                                        SearchStats* stats) const override;

  /// Deep copy (rows + cached norms). Only reads, so safe concurrently with
  /// Search; see the insert-under-readers contract in index.h.
  std::unique_ptr<VectorIndex> Clone() const override;

  /// Clone() sized for `rows`, then AddBatch(rows, pool) into the copy:
  /// each buffer is copied once, at its size after the batch.
  std::unique_ptr<VectorIndex> CloneAndAdd(
      const embed::EmbeddingMatrix& rows,
      util::ThreadPool* pool) const override;

  size_t size() const override { return num_vectors_; }
  size_t dim() const override { return dim_; }
  size_t SizeBytes() const override { return MemoryUsage().total(); }
  MemoryBreakdown MemoryUsage() const override {
    MemoryBreakdown breakdown;
    breakdown.fp32_bytes = data_.size() * sizeof(float);
    breakdown.quantized_bytes = quant_.CodeBytes();
    breakdown.graph_bytes = sq_norms_.size() * sizeof(float);
    return breakdown;
  }
  Metric metric() const override { return metric_; }

  /// The quantized code plane (empty when unquantized); for tests and
  /// memory accounting.
  const QuantizedStore& quantized_store() const { return quant_; }

  /// Artifact kind tag ("brute_force") — selects the loader in index_io.h.
  static constexpr std::string_view kKind = "brute_force";
  std::string_view kind() const override { return kKind; }

  /// Persists the stored rows (and cached cosine norms) to `path` as a
  /// MEMINDEX artifact; a loaded index is bit-identical to the saved one.
  util::Status Save(const std::string& path) const override;

  /// Reconstructs an index from an opened MEMINDEX artifact (usually via
  /// ann::LoadVectorIndex). Size mismatches between the row payload and the
  /// declared counts fail with InvalidArgument.
  static util::Result<std::unique_ptr<BruteForceIndex>> Load(
      const util::ArtifactReader& artifact);

 private:
  /// Exact fp32 distance to stored row `i` (the rerank and unquantized scan
  /// path). `q_sq` is the query's squared norm (cosine only).
  float ExactDistance(std::span<const float> query, float q_sq,
                      size_t i) const;

  /// The copy behind Clone and CloneAndAdd: buffers with room for `rows`
  /// more rows, each made in one allocation.
  std::unique_ptr<BruteForceIndex> CopyWithRoom(size_t rows) const;

  size_t dim_;
  Metric metric_;
  size_t rerank_factor_;
  size_t num_vectors_ = 0;
  std::vector<float> data_;        // row-major, stored as given
  std::vector<float> sq_norms_;    // per-row squared L2 norms (cosine only)
  QuantizedStore quant_;           // code plane (quantize-on-insert)
};

}  // namespace multiem::ann

#endif  // MULTIEM_ANN_BRUTE_FORCE_H_
