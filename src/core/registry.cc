#include "core/registry.h"

#include "ann/hnsw.h"
#include "core/density_pruner.h"
#include "embed/hashing_encoder.h"

namespace multiem::core {

namespace {

std::unique_ptr<embed::TextEncoder> MakeHashingEncoder(
    const MultiEmConfig& config) {
  embed::HashingEncoderConfig encoder_config;
  encoder_config.dim = config.embedding_dim;
  encoder_config.max_tokens = config.max_tokens;
  encoder_config.seed ^= config.seed;
  return std::make_unique<embed::HashingSentenceEncoder>(encoder_config);
}

// The quantization knob is a string at the config surface; Validate()
// guarantees it parses, and an unparsable name here (a factory created from
// an unvalidated config) degrades to fp32 rather than aborting.
ann::Quantization ParseQuantizationOrNone(const MultiEmConfig& config) {
  ann::Quantization mode = ann::Quantization::kNone;
  ann::ParseQuantization(config.quantization, &mode);
  return mode;
}

std::unique_ptr<ann::VectorIndexFactory> MakeHnswFactory(
    const MultiEmConfig& config) {
  ann::HnswConfig hnsw_config;
  hnsw_config.m = config.hnsw_m;
  hnsw_config.m0 = 2 * config.hnsw_m;  // hnswlib's layer-0 degree rule
  hnsw_config.ef_construction = config.hnsw_ef_construction;
  hnsw_config.ef_search = config.hnsw_ef_search;
  hnsw_config.seed = config.seed ^ 0x484E5357ULL;  // "HNSW"
  hnsw_config.quantization = ParseQuantizationOrNone(config);
  hnsw_config.rerank_factor = config.rerank_factor;
  return std::make_unique<ann::HnswIndexFactory>(hnsw_config);
}

std::unique_ptr<ann::VectorIndexFactory> MakeBruteForceFactory(
    const MultiEmConfig& config) {
  return std::make_unique<ann::BruteForceIndexFactory>(
      ParseQuantizationOrNone(config), config.rerank_factor);
}

std::unique_ptr<Pruner> MakeDensityPruner(const MultiEmConfig& config) {
  return std::make_unique<DensityPruner>(config);
}

}  // namespace

ComponentRegistry<embed::TextEncoder>& TextEncoders() {
  static ComponentRegistry<embed::TextEncoder>* registry = [] {
    auto* r = new ComponentRegistry<embed::TextEncoder>("encoder_name");
    r->Register(kDefaultEncoderName, MakeHashingEncoder);
    return r;
  }();
  return *registry;
}

ComponentRegistry<ann::VectorIndexFactory>& IndexFactories() {
  static ComponentRegistry<ann::VectorIndexFactory>* registry = [] {
    auto* r = new ComponentRegistry<ann::VectorIndexFactory>("index_name");
    r->Register(kHybridIndexName, MakeHnswFactory);
    r->Register(kHnswIndexName, MakeHnswFactory);
    r->Register(kBruteForceIndexName, MakeBruteForceFactory);
    return r;
  }();
  return *registry;
}

ComponentRegistry<Pruner>& Pruners() {
  static ComponentRegistry<Pruner>* registry = [] {
    auto* r = new ComponentRegistry<Pruner>("pruner_name");
    r->Register(kDefaultPrunerName, MakeDensityPruner);
    return r;
  }();
  return *registry;
}

}  // namespace multiem::core
