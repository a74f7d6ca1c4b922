/// \file artifact.h
/// Persistent pipeline artifacts: one directory holding everything a fresh
/// process needs to serve match queries against a finished run — the run
/// configuration, the fitted encoder, the integrated entity table (member
/// lists + base entity embeddings, from which every item vector derives),
/// and the serving ANN index.
///
/// Directory layout (each file a util/io.h container; docs/FORMATS.md has
/// the byte-level spec):
///
///   <dir>/manifest.mem   MEMMANIF — config, schema, attribute selection,
///                        source names, entity items, base embedding
///                        matrices, and (format v2, only when the serving
///                        index was grown incrementally) the slot->item map
///                        of the index
///   <dir>/encoder.mem    MEMENCDR — the fitted encoder (TextEncoder::Save)
///   <dir>/index.mem      MEMINDEX — the serving index (VectorIndex::Save)
///
/// Save is deterministic: saving an unchanged session twice — or saving a
/// session that was just loaded — produces byte-identical files, which CI
/// gates on. Load validates every checksum and all cross-file invariants
/// (index size vs item count, member ids vs base matrices) and fails with a
/// clear util::Status on corrupt, truncated, or newer-versioned artifacts.

#ifndef MULTIEM_CORE_ARTIFACT_H_
#define MULTIEM_CORE_ARTIFACT_H_

#include <string>

#include "core/matcher.h"
#include "util/io.h"
#include "util/status.h"

namespace multiem::core {

/// Save/Load of the artifact directory. Stateless: both operations go
/// through a Matcher, the in-memory form of an artifact.
class PipelineArtifact {
 public:
  /// Magic + current format version of the MEMMANIF artifact family.
  /// v2 added the optional "slots" section (incrementally grown serving
  /// index); v3 allows zero-member items in "items" (tombstones — retired
  /// entries that keep item ids stable across ingest epochs; they must hold
  /// no live slot); v4 drops the "centroids" section, whose rows every
  /// reader derives from "base". v1–v3 artifacts still load (the identity
  /// slot mapping for v1, no tombstones before v3), their "centroids" rows
  /// checked for count and width and ignored.
  static constexpr uint64_t kManifestMagic = util::ArtifactMagic("MEMMANIF");
  static constexpr uint32_t kManifestVersion = 4;

  /// File names inside the artifact directory.
  static constexpr const char* kManifestFile = "manifest.mem";
  static constexpr const char* kEncoderFile = "encoder.mem";
  static constexpr const char* kIndexFile = "index.mem";

  /// Persists `matcher` under directory `dir` (created if absent). Fails if
  /// the matcher's encoder or index implementation does not support Save.
  /// Serializes against AddTable on the matcher's writer mutex and saves
  /// that one consistent epoch; concurrent MatchRecords readers are never
  /// blocked.
  static util::Status Save(const Matcher& matcher, const std::string& dir);

  /// Restores a ready serving session from `dir`. The encoder and index are
  /// reloaded by kind tag (built-in kinds only: a session saved with a
  /// custom component fails with InvalidArgument); the index factory is
  /// resolved from the saved config's index name (so future AddTable calls
  /// rebuild with the same backend the run used).
  static util::Result<Matcher> Load(const std::string& dir);

  /// Same, with explicit open options applied to all three files: heap or
  /// mmap backing (either way embedding matrices and index slabs bind views
  /// over the loaded sections; a mapping adds page sharing and lazy
  /// faulting) and the verification depth. The defaults match the 1-arg
  /// overload — heap reads, full checksum verification.
  static util::Result<Matcher> Load(const std::string& dir,
                                    const util::ArtifactOpenOptions& options);
};

}  // namespace multiem::core

#endif  // MULTIEM_CORE_ARTIFACT_H_
