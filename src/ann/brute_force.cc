#include "ann/brute_force.h"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "ann/index_io.h"
#include "util/thread_pool.h"

namespace multiem::ann {

BruteForceIndex::BruteForceIndex(size_t dim, Metric metric,
                                 Quantization quantization,
                                 size_t rerank_factor)
    : dim_(dim), metric_(metric), rerank_factor_(rerank_factor) {
  if (dim_ == 0) std::abort();
  quant_.Reset(quantization, dim_);
}

void BruteForceIndex::Add(std::span<const float> vec) {
  if (vec.size() != dim_) std::abort();
  data_.insert(data_.end(), vec.begin(), vec.end());
  if (metric_ == Metric::kCosine) {
    sq_norms_.push_back(embed::Dot(vec, vec));
  }
  if (quant_.enabled()) quant_.Append(vec);
  ++num_vectors_;
}

void BruteForceIndex::AddBatch(const embed::EmbeddingMatrix& vectors,
                               util::ThreadPool* pool) {
  const size_t n = vectors.num_rows();
  if (n == 0) return;
  if (vectors.dim() != dim_) std::abort();
  const size_t base = num_vectors_;
  // Exact room, not the vector's growth policy: a batch grows each buffer
  // once, to its final size.
  data_.reserve((base + n) * dim_);
  data_.resize((base + n) * dim_);
  if (metric_ == Metric::kCosine) {
    sq_norms_.reserve(base + n);
    sq_norms_.resize(base + n);
  }
  quant_.Reserve(base + n);
  num_vectors_ = base + n;
  // Row slots are pre-sized and disjoint, so the copies (and norm
  // computations) are embarrassingly parallel; a null pool runs inline.
  util::ParallelFor(pool, n, [&](size_t i) {
    std::span<const float> row = vectors.Row(i);
    std::copy(row.begin(), row.end(), data_.begin() + (base + i) * dim_);
    if (metric_ == Metric::kCosine) {
      sq_norms_[base + i] = embed::Dot(row, row);
    }
  });
  // Codes append in row order on the calling thread: the plane stays
  // bit-identical to a serial build regardless of the pool.
  if (quant_.enabled()) {
    for (size_t i = 0; i < n; ++i) quant_.Append(vectors.Row(i));
  }
}

float BruteForceIndex::ExactDistance(std::span<const float> query, float q_sq,
                                     size_t i) const {
  std::span<const float> row(data_.data() + i * dim_, dim_);
  if (metric_ == Metric::kCosine) {
    return 1.0f - embed::CosineSimilarityFromParts(embed::Dot(query, row),
                                                   q_sq, sq_norms_[i]);
  }
  return Distance(metric_, query, row);
}

std::vector<Neighbor> BruteForceIndex::Search(std::span<const float> query,
                                              size_t k) const {
  std::vector<Neighbor> all;
  all.reserve(num_vectors_);
  auto cmp = [](const Neighbor& a, const Neighbor& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.id < b.id;
  };
  if (quant_.enabled()) {
    // Approximate scan over the code plane, then exact fp32 rerank of the
    // top rerank_factor * k. The cosine path reuses the double-precision
    // CosineSimilarityFromParts contract in the rerank, so a query bitwise-
    // identical to a stored row still ends at distance exactly 0.
    const QuantizedStore::QueryContext ctx = QuantizedStore::Prepare(query);
    for (size_t i = 0; i < num_vectors_; ++i) {
      float d;
      switch (metric_) {
        case Metric::kCosine:
          d = 1.0f - embed::CosineSimilarityFromParts(
                         quant_.DotRow(query, ctx, i), ctx.norm_sq,
                         quant_.NormSq(i));
          break;
        case Metric::kEuclidean:
          d = quant_.EuclideanRow(query, ctx, i);
          break;
        default:
          d = -quant_.DotRow(query, ctx, i);
          break;
      }
      all.push_back({i, d});
    }
    const size_t pool =
        std::min(all.size(), std::max<size_t>(rerank_factor_, 1) * k);
    std::partial_sort(all.begin(), all.begin() + pool, all.end(), cmp);
    all.resize(pool);
    const float q_sq =
        metric_ == Metric::kCosine ? embed::Dot(query, query) : 0.0f;
    for (Neighbor& n : all) n.distance = ExactDistance(query, q_sq, n.id);
    std::sort(all.begin(), all.end(), cmp);
    if (all.size() > k) all.resize(k);
    return all;
  }
  if (metric_ == Metric::kCosine) {
    // One Dot per row against cached squared norms. A query bitwise-identical
    // to a stored row yields similarity exactly 1 and distance exactly 0
    // (see CosineSimilarityFromParts).
    float q_sq = embed::Dot(query, query);
    for (size_t i = 0; i < num_vectors_; ++i) {
      std::span<const float> row(data_.data() + i * dim_, dim_);
      float sim = embed::CosineSimilarityFromParts(embed::Dot(query, row),
                                                   q_sq, sq_norms_[i]);
      all.push_back({i, 1.0f - sim});
    }
  } else {
    for (size_t i = 0; i < num_vectors_; ++i) {
      std::span<const float> row(data_.data() + i * dim_, dim_);
      all.push_back({i, Distance(metric_, query, row)});
    }
  }
  k = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + k, all.end(), cmp);
  all.resize(k);
  return all;
}

std::vector<Neighbor> BruteForceIndex::SearchWithStats(
    std::span<const float> query, size_t k, size_t ef,
    SearchStats* stats) const {
  (void)ef;  // exact scan has no beam width
  if (stats != nullptr) {
    stats->visited = num_vectors_;
    stats->distance_evals = num_vectors_;
  }
  return Search(query, k);
}

namespace {

std::vector<float> CopyWithCapacity(const std::vector<float>& from,
                                    size_t capacity) {
  std::vector<float> copy;
  copy.reserve(std::max(capacity, from.size()));
  copy.assign(from.begin(), from.end());
  return copy;
}

}  // namespace

std::unique_ptr<BruteForceIndex> BruteForceIndex::CopyWithRoom(
    size_t rows) const {
  auto copy = std::make_unique<BruteForceIndex>(dim_, metric_, quant_.mode(),
                                                rerank_factor_);
  const size_t total = num_vectors_ + rows;
  copy->num_vectors_ = num_vectors_;
  copy->data_ = CopyWithCapacity(data_, total * dim_);
  if (metric_ == Metric::kCosine) {
    copy->sq_norms_ = CopyWithCapacity(sq_norms_, total);
  }
  copy->quant_ = quant_.CopyWithCapacity(total);
  return copy;
}

std::unique_ptr<VectorIndex> BruteForceIndex::Clone() const {
  return CopyWithRoom(0);
}

std::unique_ptr<VectorIndex> BruteForceIndex::CloneAndAdd(
    const embed::EmbeddingMatrix& rows, util::ThreadPool* pool) const {
  std::unique_ptr<BruteForceIndex> copy = CopyWithRoom(rows.num_rows());
  copy->AddBatch(rows, pool);
  return copy;
}

util::Status BruteForceIndex::Save(const std::string& path) const {
  // v1 byte-for-byte when unquantized (the re-save CI gates rely on it);
  // v2 appends the quantization fields to meta plus the quant sections.
  const bool quantized = quant_.enabled();
  util::ArtifactWriter artifact(
      kIndexArtifactMagic,
      quantized ? kIndexArtifactVersion : kIndexArtifactVersionFp32);
  util::ByteWriter& meta = artifact.AddSection(kIndexMetaSection);
  meta.WriteString(kKind);
  meta.WriteU64(dim_);
  meta.WriteU8(static_cast<uint8_t>(metric_));
  meta.WriteU64(num_vectors_);
  if (quantized) {
    meta.WriteU8(static_cast<uint8_t>(quant_.mode()));
    meta.WriteU64(rerank_factor_);
  }
  artifact.AddSection("vectors").WriteF32Array(data_);
  artifact.AddSection("sq_norms").WriteF32Array(sq_norms_);
  if (quantized) quant_.AppendSections(&artifact);
  return artifact.WriteFile(path);
}

util::Result<std::unique_ptr<BruteForceIndex>> BruteForceIndex::Load(
    const util::ArtifactReader& artifact) {
  auto meta = artifact.Section(kIndexMetaSection);
  if (!meta.ok()) return meta.status();
  std::string kind;
  MULTIEM_RETURN_IF_ERROR(meta->ReadString(&kind));
  if (kind != kKind) {
    return util::Status::InvalidArgument("artifact holds index kind '" +
                                         kind + "', not 'brute_force'");
  }
  uint64_t dim, num_vectors;
  uint8_t metric_byte;
  MULTIEM_RETURN_IF_ERROR(meta->ReadU64(&dim));
  MULTIEM_RETURN_IF_ERROR(meta->ReadU8(&metric_byte));
  MULTIEM_RETURN_IF_ERROR(meta->ReadU64(&num_vectors));
  Quantization quantization = Quantization::kNone;
  uint64_t rerank_factor = 4;
  if (artifact.version() >= 2) {
    // v2 exists only for quantized indexes (see Save), so kNone here means
    // a malformed file, same as an out-of-range byte.
    uint8_t quant_byte;
    MULTIEM_RETURN_IF_ERROR(meta->ReadU8(&quant_byte));
    MULTIEM_RETURN_IF_ERROR(meta->ReadU64(&rerank_factor));
    if (quant_byte == static_cast<uint8_t>(Quantization::kNone) ||
        quant_byte > static_cast<uint8_t>(Quantization::kFp16)) {
      return util::Status::InvalidArgument(
          "brute_force artifact: v2 file with invalid quantization mode " +
          std::to_string(quant_byte));
    }
    quantization = static_cast<Quantization>(quant_byte);
  }
  MULTIEM_RETURN_IF_ERROR(meta->ExpectExhausted());
  if (dim == 0 ||
      metric_byte > static_cast<uint8_t>(Metric::kInnerProduct)) {
    return util::Status::InvalidArgument(
        "brute_force artifact: malformed meta (dim " + std::to_string(dim) +
        ", metric " + std::to_string(metric_byte) + ")");
  }
  const Metric metric = static_cast<Metric>(metric_byte);

  auto vectors = artifact.Section("vectors");
  if (!vectors.ok()) return vectors.status();
  std::vector<float> data;
  MULTIEM_RETURN_IF_ERROR(vectors->ReadF32Array(&data));
  MULTIEM_RETURN_IF_ERROR(vectors->ExpectExhausted());
  // Division form, not `num_vectors * dim`: crafted counts must not wrap
  // the product and slip an oversized num_vectors_ past the check.
  if (data.size() % dim != 0 || data.size() / dim != num_vectors) {
    return util::Status::InvalidArgument(
        "brute_force artifact: row payload holds " +
        std::to_string(data.size()) + " floats, header claims " +
        std::to_string(num_vectors) + " rows of dim " + std::to_string(dim));
  }
  auto norms = artifact.Section("sq_norms");
  if (!norms.ok()) return norms.status();
  std::vector<float> sq_norms;
  MULTIEM_RETURN_IF_ERROR(norms->ReadF32Array(&sq_norms));
  MULTIEM_RETURN_IF_ERROR(norms->ExpectExhausted());
  const size_t want_norms = metric == Metric::kCosine ? num_vectors : 0;
  if (sq_norms.size() != want_norms) {
    return util::Status::InvalidArgument(
        "brute_force artifact: norm cache holds " +
        std::to_string(sq_norms.size()) + " entries, want " +
        std::to_string(want_norms));
  }

  auto index = std::make_unique<BruteForceIndex>(dim, metric, quantization,
                                                 rerank_factor);
  index->num_vectors_ = num_vectors;
  index->data_ = std::move(data);
  index->sq_norms_ = std::move(sq_norms);
  if (quantization != Quantization::kNone) {
    MULTIEM_RETURN_IF_ERROR(index->quant_.LoadSections(
        artifact, quantization, dim, num_vectors));
  }
  return index;
}

}  // namespace multiem::ann
