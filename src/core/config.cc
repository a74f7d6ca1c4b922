#include "core/config.h"

#include <cmath>
#include <string>

#include "ann/quant.h"
#include "core/registry.h"

namespace multiem::core {

util::Status MultiEmConfig::ValidateValues() const {
  if (embedding_dim == 0) {
    return util::Status::InvalidArgument("embedding_dim must be > 0");
  }
  // Each range check is written so that NaN fails it: every comparison
  // with NaN is false.
  if (!(sample_ratio > 0.0 && sample_ratio <= 1.0)) {
    return util::Status::InvalidArgument("sample_ratio must be in (0, 1]");
  }
  if (!(gamma > 0.0 && gamma <= 1.0)) {
    return util::Status::InvalidArgument("gamma must be in (0, 1]");
  }
  if (k == 0) {
    return util::Status::InvalidArgument("k must be >= 1");
  }
  if (!(m >= 0.0f && m <= 2.0f)) {
    return util::Status::InvalidArgument(
        "m must be in [0, 2] (cosine distance)");
  }
  if (!(eps >= 0.0f && std::isfinite(eps))) {
    return util::Status::InvalidArgument("eps must be finite and >= 0");
  }
  if (min_pts == 0) {
    return util::Status::InvalidArgument("min_pts must be >= 1");
  }
  ann::Quantization quant_mode;
  if (!ann::ParseQuantization(quantization, &quant_mode)) {
    return util::Status::InvalidArgument(
        "quantization must be one of none/int8/fp16, got '" + quantization +
        "'");
  }
  if (quant_mode != ann::Quantization::kNone && rerank_factor == 0) {
    return util::Status::InvalidArgument(
        "rerank_factor must be >= 1 when quantization is enabled");
  }
  return util::Status::Ok();
}

util::Status MultiEmConfig::ValidateHnswKnobs() const {
  if (hnsw_m < 2) {
    return util::Status::InvalidArgument(
        "hnsw_m must be >= 2, got " + std::to_string(hnsw_m));
  }
  if (hnsw_ef_construction == 0) {
    return util::Status::InvalidArgument("hnsw_ef_construction must be >= 1");
  }
  if (hnsw_ef_search < k) {
    return util::Status::InvalidArgument(
        "hnsw_ef_search (" + std::to_string(hnsw_ef_search) +
        ") must be >= k (" + std::to_string(k) +
        "): the search beam cannot return k neighbors otherwise");
  }
  return util::Status::Ok();
}

util::Status MultiEmConfig::Validate() const {
  MULTIEM_RETURN_IF_ERROR(ValidateValues());
  if (BuildsHnsw(index_name)) {
    MULTIEM_RETURN_IF_ERROR(ValidateHnswKnobs());
  }
  MULTIEM_RETURN_IF_ERROR(TextEncoders().CheckRegistered(encoder_name));
  MULTIEM_RETURN_IF_ERROR(IndexFactories().CheckRegistered(index_name));
  MULTIEM_RETURN_IF_ERROR(Pruners().CheckRegistered(pruner_name));
  return util::Status::Ok();
}

}  // namespace multiem::core
