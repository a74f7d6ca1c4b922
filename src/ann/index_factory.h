/// \file index_factory.h
/// Abstract factory for nearest-neighbor indexes, so the merging phase can be
/// assembled with any VectorIndex implementation (HNSW, exact brute force, or
/// a third-party backend) without the pipeline naming a concrete type. The
/// pipeline resolves a factory by name through core/registry.h
/// (`MultiEmConfig::index_name`) or takes one injected via
/// `PipelineBuilder::WithIndexFactory`.

#ifndef MULTIEM_ANN_INDEX_FACTORY_H_
#define MULTIEM_ANN_INDEX_FACTORY_H_

#include <memory>

#include "ann/hnsw.h"
#include "ann/index.h"

namespace multiem::ann {

/// Creates empty vector indexes on demand. One factory instance serves every
/// two-table merge of a pipeline run (two indexes per merge), so Create must
/// be const and safe to call concurrently from the merge thread pool.
class VectorIndexFactory {
 public:
  virtual ~VectorIndexFactory() = default;

  /// Returns an empty index for `dim`-dimensional vectors under `metric`.
  virtual std::unique_ptr<VectorIndex> Create(size_t dim,
                                              Metric metric) const = 0;
};

/// Factory for the exact BruteForceIndex (the `index_name = "brute_force"`
/// ablation). With a quantization mode the created scans run over codes +
/// fp32 rerank (see BruteForceIndex).
class BruteForceIndexFactory final : public VectorIndexFactory {
 public:
  explicit BruteForceIndexFactory(
      Quantization quantization = Quantization::kNone,
      size_t rerank_factor = 4)
      : quantization_(quantization), rerank_factor_(rerank_factor) {}

  std::unique_ptr<VectorIndex> Create(size_t dim,
                                      Metric metric) const override;

 private:
  Quantization quantization_;
  size_t rerank_factor_;
};

/// Factory for HnswIndex with fixed construction/search knobs (the default
/// `index_name = "hnsw"`). Every created index shares the same HnswConfig,
/// including the seed — matching the single-seed behavior of the merging
/// phase, which keeps parallel runs deterministic.
class HnswIndexFactory final : public VectorIndexFactory {
 public:
  explicit HnswIndexFactory(HnswConfig config = {}) : config_(config) {}

  std::unique_ptr<VectorIndex> Create(size_t dim,
                                      Metric metric) const override;

  const HnswConfig& config() const { return config_; }

 private:
  HnswConfig config_;
};

}  // namespace multiem::ann

#endif  // MULTIEM_ANN_INDEX_FACTORY_H_
