/// \file registry.h
/// String-keyed factory registries for the pipeline's pluggable components:
/// embed::TextEncoder (`MultiEmConfig::encoder_name`),
/// ann::VectorIndexFactory (`index_name`), and core::Pruner (`pruner_name`).
///
/// Third-party components register from their own translation unit — no
/// edits under src/core/ required:
///
///   namespace {
///   const bool registered = multiem::core::TextEncoders().Register(
///       "my-encoder", [](const multiem::core::MultiEmConfig& config) {
///         return std::make_unique<MyEncoder>(config.embedding_dim);
///       });
///   }  // namespace
///
/// and are then selected via `config.encoder_name = "my-encoder"` (or the
/// MULTIEM_REGISTER_COMPONENT convenience macro below). The built-in
/// components ("hashing"; "hybrid", "hnsw" and "brute_force"; "density")
/// are registered lazily by the accessor functions, so they are always
/// present regardless of static-initialization order.

#ifndef MULTIEM_CORE_REGISTRY_H_
#define MULTIEM_CORE_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "ann/index_factory.h"
#include "core/config.h"
#include "core/pruner.h"
#include "embed/text_encoder.h"
#include "util/status.h"
#include "util/string_util.h"

namespace multiem::core {

/// A thread-safe name -> factory map for one component interface. Factories
/// receive the run's MultiEmConfig so built-ins can honor the relevant knobs
/// (embedding_dim, hnsw_*, eps/min_pts, seed).
template <typename Interface>
class ComponentRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<Interface>(const MultiEmConfig&)>;

  /// `kind` is the config field the registry backs ("encoder_name", ...);
  /// it only shapes error messages.
  explicit ComponentRegistry(std::string kind) : kind_(std::move(kind)) {}

  ComponentRegistry(const ComponentRegistry&) = delete;
  ComponentRegistry& operator=(const ComponentRegistry&) = delete;

  /// Registers `factory` under `name`. Returns false (and keeps the existing
  /// entry) when the name is already taken, so double registration is
  /// detectable but never fatal at static-initialization time.
  bool Register(std::string name, Factory factory) {
    std::lock_guard<std::mutex> lock(mu_);
    return factories_.emplace(std::move(name), std::move(factory)).second;
  }

  /// True iff `name` has a registered factory.
  bool Contains(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    return factories_.count(name) > 0;
  }

  /// Registered names in sorted order (for error messages and diagnostics).
  std::vector<std::string> RegisteredNames() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> names;
    names.reserve(factories_.size());
    for (const auto& [name, factory] : factories_) names.push_back(name);
    return names;
  }

  /// InvalidArgument listing the registered names when `name` is unknown.
  util::Status CheckRegistered(const std::string& name) const {
    if (Contains(name)) return util::Status::Ok();
    return util::Status::InvalidArgument(
        "unknown " + kind_ + " '" + name +
        "' (registered: " + util::Join(RegisteredNames(), ", ") + ")");
  }

  /// Instantiates the component registered under `name`, or the
  /// CheckRegistered error when the name is unknown. A registered factory
  /// that returns null yields Internal rather than a latent null pointer.
  util::Result<std::unique_ptr<Interface>> Create(
      const std::string& name, const MultiEmConfig& config) const {
    Factory factory;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = factories_.find(name);
      if (it != factories_.end()) factory = it->second;
    }
    if (!factory) return CheckRegistered(name);
    std::unique_ptr<Interface> component = factory(config);
    if (component == nullptr) {
      return util::Status::Internal("registered " + kind_ + " factory for '" +
                                    name + "' returned null");
    }
    return component;
  }

 private:
  std::string kind_;
  mutable std::mutex mu_;
  std::map<std::string, Factory> factories_;
};

/// The built-in index names. Each names an HNSW or BruteForceIndex factory,
/// and the name alone also decides which merges skip the factory and scan
/// exactly (core::MutualOptionsFromConfig; docs/API.md, "Merge index
/// choice"): "hybrid" scans the merges its cost rule finds cheaper to scan
/// and builds HNSW for the rest and for the serving index, "hnsw" builds
/// HNSW everywhere, and fp32 "brute_force" scans every merge.
inline constexpr const char* kHybridIndexName = "hybrid";
inline constexpr const char* kHnswIndexName = "hnsw";
inline constexpr const char* kBruteForceIndexName = "brute_force";

/// Default component names (what a default MultiEmConfig selects).
inline constexpr const char* kDefaultEncoderName = "hashing";
inline constexpr const char* kDefaultIndexName = kHybridIndexName;
inline constexpr const char* kDefaultPrunerName = "density";

/// True for the built-in index names that build HNSW with the config's
/// hnsw_* knobs ("hybrid" and "hnsw"), so MultiEmConfig::ValidateHnswKnobs
/// applies to them.
inline bool BuildsHnsw(const std::string& index_name) {
  return index_name == kHybridIndexName || index_name == kHnswIndexName;
}

/// Process-wide registries. The first call registers the built-ins, so the
/// defaults are available before any user code runs.
ComponentRegistry<embed::TextEncoder>& TextEncoders();
ComponentRegistry<ann::VectorIndexFactory>& IndexFactories();
ComponentRegistry<Pruner>& Pruners();

}  // namespace multiem::core

/// Registers `factory` (a callable taking const MultiEmConfig&) with one of
/// the registry accessors above from namespace scope of any TU:
///   MULTIEM_REGISTER_COMPONENT(TextEncoders, "my-encoder", MakeMyEncoder);
#define MULTIEM_REGISTRY_CONCAT_INNER(a, b) a##b
#define MULTIEM_REGISTRY_CONCAT(a, b) MULTIEM_REGISTRY_CONCAT_INNER(a, b)
#define MULTIEM_REGISTER_COMPONENT(accessor, name, factory)               \
  namespace {                                                             \
  [[maybe_unused]] const bool MULTIEM_REGISTRY_CONCAT(                    \
      multiem_registered_component_, __COUNTER__) =                       \
      ::multiem::core::accessor().Register((name), (factory));            \
  }

#endif  // MULTIEM_CORE_REGISTRY_H_
