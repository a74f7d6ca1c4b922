/// \file index_io.h
/// Persistence entry point for vector indexes. Every saved index is one
/// MEMINDEX artifact (util/io.h container; spec in docs/FORMATS.md) whose
/// "meta" section starts with the implementation's kind tag
/// (VectorIndex::kind). LoadVectorIndex reads that tag and dispatches to the
/// built-in loader for it ("hnsw", "brute_force"); any other tag fails with
/// InvalidArgument.

#ifndef MULTIEM_ANN_INDEX_IO_H_
#define MULTIEM_ANN_INDEX_IO_H_

#include <memory>
#include <string>

#include "ann/index.h"
#include "util/io.h"
#include "util/status.h"

namespace multiem::ann {

/// Magic + current format version of the MEMINDEX artifact family. Readers
/// accept versions in [1, kIndexArtifactVersion]; newer files fail with
/// FailedPrecondition (see util::ArtifactReader::FromFile). Version 2 adds
/// the quantized code plane (quant/quant_codes/quant_params sections, plus
/// quantization fields in the index config) and is written only by
/// quantized indexes — an unquantized save still emits the byte-identical
/// v1 layout, so fp32 artifacts stay stable across this bump.
inline constexpr uint64_t kIndexArtifactMagic =
    util::ArtifactMagic("MEMINDEX");
inline constexpr uint32_t kIndexArtifactVersion = 2;
inline constexpr uint32_t kIndexArtifactVersionFp32 = 1;

/// Every index artifact's "meta" section begins with the kind tag string;
/// the remaining meta fields are implementation-defined.
inline constexpr const char* kIndexMetaSection = "meta";

/// Opens the MEMINDEX artifact at `path`, validates it (magic, version,
/// checksums), reads the kind tag, and dispatches the built-in loader for
/// it; an unknown tag fails with InvalidArgument naming it.
/// The returned index answers Search immediately; see the implementation's
/// Save contract for what state round-trips. `options` selects mmap-backed
/// zero-copy opening and the verification depth (util::ArtifactOpenOptions);
/// the defaults read into heap memory with full verification.
util::Result<std::unique_ptr<VectorIndex>> LoadVectorIndex(
    const std::string& path, const util::ArtifactOpenOptions& options = {});

/// The same over an artifact already opened (with kIndexArtifactMagic and
/// kIndexArtifactVersion), say by util::ArtifactReader::FromFiles beside
/// other files. The slabs the index views keep their sections alive, so
/// `artifact` may die after the call.
util::Result<std::unique_ptr<VectorIndex>> LoadVectorIndex(
    const util::ArtifactReader& artifact);

}  // namespace multiem::ann

#endif  // MULTIEM_ANN_INDEX_IO_H_
