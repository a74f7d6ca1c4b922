#ifndef MULTIEM_EMBED_EMBEDDING_H_
#define MULTIEM_EMBED_EMBEDDING_H_

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "util/memory.h"

namespace multiem::embed {

/// Dense row-major matrix of float embeddings; row i is the embedding of
/// entity/item i. The whole pipeline passes these around by reference; rows
/// are exposed as std::span so no copies are made on the hot path.
///
/// Storage is a util::CowSlab: a matrix either owns its floats or is a
/// read-only *view* over externally owned bytes — typically rows of a
/// loaded artifact section (the zero-copy load path). A view materializes a
/// private owned copy on the first mutation; copying a view is O(1) and
/// shares the backing bytes.
class EmbeddingMatrix {
 public:
  EmbeddingMatrix() : dim_(0) {}
  /// Creates a zero-initialized num_rows x dim matrix.
  EmbeddingMatrix(size_t num_rows, size_t dim)
      : dim_(dim), data_(std::vector<float>(num_rows * dim, 0.0f)) {}

  /// Adopts `data` — owned or view — as the row-major payload of a matrix
  /// of dimension `dim` (`data.size()` must be a multiple of `dim`). This is
  /// how matrix_io.h hands a ReadArrayCow-bound slab to a matrix.
  static EmbeddingMatrix FromSlab(size_t dim, util::CowSlab<float> data) {
    EmbeddingMatrix m;
    m.dim_ = dim;
    m.data_ = std::move(data);
    return m;
  }

  size_t num_rows() const { return dim_ == 0 ? 0 : data_.size() / dim_; }
  size_t dim() const { return dim_; }

  /// Mutable view of row `i` (materializes an owned copy of a view).
  std::span<float> Row(size_t i) {
    return std::span<float>(data_.data() + i * dim_, dim_);
  }
  /// Read-only view of row `i`.
  std::span<const float> Row(size_t i) const {
    return std::span<const float>(data_.data() + i * dim_, dim_);
  }

  /// Appends a row (must have length dim; first append fixes dim when 0).
  void AppendRow(std::span<const float> row);

  std::span<const float> data() const { return data_.span(); }

  /// Bytes of embedding payload reachable through this matrix (for the
  /// memory accounting bench). Views count their mapped bytes too.
  size_t SizeBytes() const { return data_.size() * sizeof(float); }

 private:
  size_t dim_;
  util::CowSlab<float> data_;
};

/// Dot product of two equal-length vectors.
float Dot(std::span<const float> a, std::span<const float> b);

/// Euclidean (L2) norm of `v`.
float Norm(std::span<const float> v);

/// Scales `v` to unit L2 norm in place; leaves all-zero vectors untouched.
void L2NormalizeInPlace(std::span<float> v);

/// Cosine similarity from a precomputed dot product and squared norms:
/// dot / sqrt(na2 * nb2), clamped to [-1, 1]; returns 0 if either squared
/// norm is <= 0. The denominator is formed in double (the product of two
/// floats is exact in double and sqrt is correctly rounded), so when
/// dot == na2 == nb2 — the case for bitwise-identical vectors, since Dot is
/// deterministic — the result is exactly 1 and the cosine distance exactly
/// 0. BruteForceIndex relies on this so that exact duplicates survive a
/// max_distance = 0 cap in MutualTopK; keep this the single authoritative
/// implementation of the formula.
float CosineSimilarityFromParts(float dot, float na2, float nb2);

/// Cosine similarity in [-1, 1]; returns 0 if either vector is all-zero.
/// Exactly 1 for bitwise-identical inputs (see CosineSimilarityFromParts).
float CosineSimilarity(std::span<const float> a, std::span<const float> b);

/// Cosine distance = 1 - cosine similarity (the merging-phase metric).
float CosineDistance(std::span<const float> a, std::span<const float> b);

/// Euclidean distance (the pruning-phase metric).
float EuclideanDistance(std::span<const float> a, std::span<const float> b);

}  // namespace multiem::embed

#endif  // MULTIEM_EMBED_EMBEDDING_H_
