#include "embed/text_encoder.h"

#include <utility>

#include "embed/encoder_io.h"
#include "embed/hashing_encoder.h"

namespace multiem::embed {

EmbeddingMatrix TextEncoder::EncodeBatch(const std::vector<std::string>& texts,
                                         util::ThreadPool* pool) const {
  EmbeddingMatrix out(texts.size(), dim());
  // ParallelFor runs under its own util::TaskGroup, so EncodeBatch is safe
  // both from the run thread and from inside a pool task, and never waits on
  // unrelated work another pool user submitted.
  util::ParallelFor(pool, texts.size(), [&](size_t i) {
    EncodeInto(texts[i], out.Row(i));
  });
  return out;
}

util::Result<std::unique_ptr<TextEncoder>> LoadTextEncoder(
    const std::string& path, const util::ArtifactOpenOptions& options) {
  auto artifact = util::ArtifactReader::FromFile(
      path, kEncoderArtifactMagic, kEncoderArtifactVersion, options);
  if (!artifact.ok()) return artifact.status();
  return LoadTextEncoder(*artifact);
}

util::Result<std::unique_ptr<TextEncoder>> LoadTextEncoder(
    const util::ArtifactReader& artifact) {
  auto meta = artifact.Section(kEncoderMetaSection);
  if (!meta.ok()) return meta.status();
  std::string kind;
  MULTIEM_RETURN_IF_ERROR(meta->ReadString(&kind));
  if (kind != HashingSentenceEncoder::kKind) {
    return util::Status::InvalidArgument("unknown encoder kind '" + kind +
                                         "' (built-in: hashing)");
  }
  auto encoder = HashingSentenceEncoder::Load(artifact);
  if (!encoder.ok()) return encoder.status();
  return std::unique_ptr<TextEncoder>(std::move(*encoder));
}

}  // namespace multiem::embed
