/// \file encoder_io.h
/// Persistence entry point for text encoders, mirroring ann/index_io.h:
/// every saved encoder is one MEMENCDR artifact (util/io.h container; spec
/// in docs/FORMATS.md) whose "meta" section starts with the
/// implementation's kind tag (TextEncoder::kind). LoadTextEncoder reads
/// that tag and dispatches to the built-in loader for it ("hashing"); any
/// other tag fails with InvalidArgument.
///
/// Kept separate from text_encoder.h so that widely-included header stays
/// free of the artifact-container machinery.

#ifndef MULTIEM_EMBED_ENCODER_IO_H_
#define MULTIEM_EMBED_ENCODER_IO_H_

#include <memory>
#include <string>

#include "embed/text_encoder.h"
#include "util/io.h"
#include "util/status.h"

namespace multiem::embed {

/// Magic + current format version of the MEMENCDR artifact family. Readers
/// accept versions in [1, kEncoderArtifactVersion]; newer files fail with
/// FailedPrecondition.
inline constexpr uint64_t kEncoderArtifactMagic =
    util::ArtifactMagic("MEMENCDR");
inline constexpr uint32_t kEncoderArtifactVersion = 1;

/// Every encoder artifact's "meta" section begins with the kind tag string.
inline constexpr const char* kEncoderMetaSection = "meta";

/// Opens the MEMENCDR artifact at `path`, validates it, reads the kind tag,
/// and dispatches the built-in loader for it (an unknown tag fails with
/// InvalidArgument naming it). The returned encoder is ready to
/// EncodeInto — its fitted state round-tripped; do not call FitCorpus again
/// unless you mean to refit on a new corpus. `options` selects mmap-backed
/// opening and the verification depth (util::ArtifactOpenOptions).
util::Result<std::unique_ptr<TextEncoder>> LoadTextEncoder(
    const std::string& path, const util::ArtifactOpenOptions& options = {});

/// The same over an artifact already opened (with kEncoderArtifactMagic and
/// kEncoderArtifactVersion), say by util::ArtifactReader::FromFiles beside
/// other files. Views the encoder binds keep their sections alive, so
/// `artifact` may die after the call.
util::Result<std::unique_ptr<TextEncoder>> LoadTextEncoder(
    const util::ArtifactReader& artifact);

}  // namespace multiem::embed

#endif  // MULTIEM_EMBED_ENCODER_IO_H_
