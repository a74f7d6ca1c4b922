#include "embed/embedding.h"

#include <cmath>
#include <cstdlib>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

namespace multiem::embed {

void EmbeddingMatrix::AppendRow(std::span<const float> row) {
  if (dim_ == 0) dim_ = row.size();
  if (row.size() != dim_) std::abort();
  data_.append(row.begin(), row.end());
}

float Dot(std::span<const float> a, std::span<const float> b) {
  // This is the hottest function in the library: every HNSW hop is one Dot
  // over a 384-dim embedding.
  size_t n = a.size();
  size_t i = 0;
#if defined(__AVX2__) && defined(__FMA__)
  __m256 acc_a = _mm256_setzero_ps();
  __m256 acc_b = _mm256_setzero_ps();
  __m256 acc_c = _mm256_setzero_ps();
  __m256 acc_d = _mm256_setzero_ps();
  for (; i + 32 <= n; i += 32) {
    acc_a = _mm256_fmadd_ps(_mm256_loadu_ps(a.data() + i),
                            _mm256_loadu_ps(b.data() + i), acc_a);
    acc_b = _mm256_fmadd_ps(_mm256_loadu_ps(a.data() + i + 8),
                            _mm256_loadu_ps(b.data() + i + 8), acc_b);
    acc_c = _mm256_fmadd_ps(_mm256_loadu_ps(a.data() + i + 16),
                            _mm256_loadu_ps(b.data() + i + 16), acc_c);
    acc_d = _mm256_fmadd_ps(_mm256_loadu_ps(a.data() + i + 24),
                            _mm256_loadu_ps(b.data() + i + 24), acc_d);
  }
  for (; i + 8 <= n; i += 8) {
    acc_a = _mm256_fmadd_ps(_mm256_loadu_ps(a.data() + i),
                            _mm256_loadu_ps(b.data() + i), acc_a);
  }
  __m256 sum = _mm256_add_ps(_mm256_add_ps(acc_a, acc_b),
                             _mm256_add_ps(acc_c, acc_d));
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, sum);
  float acc0 = lanes[0] + lanes[1] + lanes[2] + lanes[3] + lanes[4] +
               lanes[5] + lanes[6] + lanes[7];
  float acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
#else
  // Four independent accumulators break the FP dependency chain so the
  // compiler can vectorize/pipeline without -ffast-math.
  float acc0 = 0.0f;
  float acc1 = 0.0f;
  float acc2 = 0.0f;
  float acc3 = 0.0f;
  for (; i + 4 <= n; i += 4) {
    acc0 += a[i] * b[i];
    acc1 += a[i + 1] * b[i + 1];
    acc2 += a[i + 2] * b[i + 2];
    acc3 += a[i + 3] * b[i + 3];
  }
#endif
  for (; i < n; ++i) acc0 += a[i] * b[i];
  return (acc0 + acc1) + (acc2 + acc3);
}

float Norm(std::span<const float> v) { return std::sqrt(Dot(v, v)); }

void L2NormalizeInPlace(std::span<float> v) {
  float norm = Norm(v);
  if (norm <= 0.0f) return;
  float inv = 1.0f / norm;
  for (float& x : v) x *= inv;
}

float CosineSimilarityFromParts(float dot, float na2, float nb2) {
  if (na2 <= 0.0f || nb2 <= 0.0f) return 0.0f;
  double sim = static_cast<double>(dot) /
               std::sqrt(static_cast<double>(na2) * static_cast<double>(nb2));
  if (sim > 1.0) sim = 1.0;
  if (sim < -1.0) sim = -1.0;
  return static_cast<float>(sim);
}

float CosineSimilarity(std::span<const float> a, std::span<const float> b) {
  return CosineSimilarityFromParts(Dot(a, b), Dot(a, a), Dot(b, b));
}

float CosineDistance(std::span<const float> a, std::span<const float> b) {
  return 1.0f - CosineSimilarity(a, b);
}

float EuclideanDistance(std::span<const float> a, std::span<const float> b) {
  // Second-hottest kernel after Dot: every pruning-phase distance and every
  // euclidean-metric HNSW hop lands here, so it mirrors Dot's AVX2+FMA
  // structure (four independent accumulators over 32-lane strides).
  size_t n = a.size();
  size_t i = 0;
#if defined(__AVX2__) && defined(__FMA__)
  __m256 acc_a = _mm256_setzero_ps();
  __m256 acc_b = _mm256_setzero_ps();
  __m256 acc_c = _mm256_setzero_ps();
  __m256 acc_d = _mm256_setzero_ps();
  for (; i + 32 <= n; i += 32) {
    __m256 d0 = _mm256_sub_ps(_mm256_loadu_ps(a.data() + i),
                              _mm256_loadu_ps(b.data() + i));
    __m256 d1 = _mm256_sub_ps(_mm256_loadu_ps(a.data() + i + 8),
                              _mm256_loadu_ps(b.data() + i + 8));
    __m256 d2 = _mm256_sub_ps(_mm256_loadu_ps(a.data() + i + 16),
                              _mm256_loadu_ps(b.data() + i + 16));
    __m256 d3 = _mm256_sub_ps(_mm256_loadu_ps(a.data() + i + 24),
                              _mm256_loadu_ps(b.data() + i + 24));
    acc_a = _mm256_fmadd_ps(d0, d0, acc_a);
    acc_b = _mm256_fmadd_ps(d1, d1, acc_b);
    acc_c = _mm256_fmadd_ps(d2, d2, acc_c);
    acc_d = _mm256_fmadd_ps(d3, d3, acc_d);
  }
  for (; i + 8 <= n; i += 8) {
    __m256 d = _mm256_sub_ps(_mm256_loadu_ps(a.data() + i),
                             _mm256_loadu_ps(b.data() + i));
    acc_a = _mm256_fmadd_ps(d, d, acc_a);
  }
  __m256 sum = _mm256_add_ps(_mm256_add_ps(acc_a, acc_b),
                             _mm256_add_ps(acc_c, acc_d));
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, sum);
  float acc0 = lanes[0] + lanes[1] + lanes[2] + lanes[3] + lanes[4] +
               lanes[5] + lanes[6] + lanes[7];
  float acc1 = 0.0f;
#else
  // Two independent accumulators break the FP dependency chain so the
  // compiler can vectorize/pipeline without -ffast-math.
  float acc0 = 0.0f;
  float acc1 = 0.0f;
  for (; i + 2 <= n; i += 2) {
    float d0 = a[i] - b[i];
    float d1 = a[i + 1] - b[i + 1];
    acc0 += d0 * d0;
    acc1 += d1 * d1;
  }
#endif
  for (; i < n; ++i) {
    float d = a[i] - b[i];
    acc0 += d * d;
  }
  return std::sqrt(acc0 + acc1);
}

}  // namespace multiem::embed
