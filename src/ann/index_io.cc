#include "ann/index_io.h"

#include <utility>

#include "ann/brute_force.h"
#include "ann/hnsw.h"

namespace multiem::ann {

namespace {

template <typename Index>
util::Result<std::unique_ptr<VectorIndex>> AsVectorIndex(
    util::Result<std::unique_ptr<Index>> loaded) {
  if (!loaded.ok()) return loaded.status();
  return std::unique_ptr<VectorIndex>(std::move(*loaded));
}

}  // namespace

util::Result<std::unique_ptr<VectorIndex>> LoadVectorIndex(
    const std::string& path, const util::ArtifactOpenOptions& options) {
  auto artifact = util::ArtifactReader::FromFile(
      path, kIndexArtifactMagic, kIndexArtifactVersion, options);
  if (!artifact.ok()) return artifact.status();
  return LoadVectorIndex(*artifact);
}

util::Result<std::unique_ptr<VectorIndex>> LoadVectorIndex(
    const util::ArtifactReader& artifact) {
  auto meta = artifact.Section(kIndexMetaSection);
  if (!meta.ok()) return meta.status();
  std::string kind;
  MULTIEM_RETURN_IF_ERROR(meta->ReadString(&kind));
  if (kind == HnswIndex::kKind) {
    return AsVectorIndex(HnswIndex::Load(artifact));
  }
  if (kind == BruteForceIndex::kKind) {
    return AsVectorIndex(BruteForceIndex::Load(artifact));
  }
  return util::Status::InvalidArgument("unknown index kind '" + kind +
                                       "' (built-in: hnsw, brute_force)");
}

}  // namespace multiem::ann
