/// \file merge_source.h
/// Handle abstraction over the inputs of the merge hierarchy.
///
/// A handle names a table of the merge hierarchy without committing to
/// where its bytes live, so one executor (ExecuteMergePlan in
/// core/merge_plan.h) serves resident, spilled, and multi-process merging,
/// loading at most one pair of handles at a time. Two backings exist:
///
///   * resident — wraps an in-memory MergeTable;
///   * spill    — a MEMMERGT file (MergeTable::Save), opened lazily with the
///                handle's ArtifactOpenOptions and checked against the
///                store it will be derived from. Spill executions write
///                these, and the multi-process coordinator (src/distrib/)
///                re-enters each finished shard worker's merge roots
///                through them.
///
/// Handles are cheap to copy-construct from paths and move-only-in-spirit
/// for resident tables (copying a resident handle would duplicate chunks;
/// Materialize makes the chunk-sharing copy explicit instead).

#ifndef MULTIEM_CORE_MERGE_SOURCE_H_
#define MULTIEM_CORE_MERGE_SOURCE_H_

#include <string>

#include "core/merge_table.h"
#include "util/io.h"
#include "util/status.h"

namespace multiem::core {

/// A handle to one table of the merge hierarchy. See file comment.
class MergeSource {
 public:
  MergeSource() = default;

  /// Wraps an in-memory table.
  static MergeSource FromTable(MergeTable table);

  /// Names a MEMMERGT spill file, opened lazily on Materialize/Acquire with
  /// `options`. When `owns_file` is set, RemoveBackingFile() deletes the
  /// file — the merge executor calls that once a consumed handle's output
  /// is safely written, which is how spill cleanup works.
  static MergeSource FromSpill(std::string path,
                               util::ArtifactOpenOptions options = {},
                               bool owns_file = false);

  bool empty() const { return kind_ == Kind::kEmpty; }
  bool resident() const { return kind_ == Kind::kResident; }

  /// Non-consuming load. Resident handles copy (chunk-sharing, O(chunks));
  /// disk handles open and parse their backing (MergeTable::Load over
  /// `store`, so a file naming entities `store` lacks is InvalidArgument).
  /// The handle stays valid.
  util::Result<MergeTable> Materialize(const EntityEmbeddingStore& store) const;

  /// Consuming load: resident handles move their table out, disk handles
  /// load as Materialize. The handle is empty afterwards; an owned backing
  /// file is NOT removed (call RemoveBackingFile once the data derived from
  /// it is durable).
  util::Result<MergeTable> Acquire(const EntityEmbeddingStore& store);

  /// Deletes the backing file of an owned spill handle (best-effort; no-op
  /// for every other kind). Safe after Acquire — ownership survives
  /// consumption so the executor can order "write output, then drop inputs".
  void RemoveBackingFile();

 private:
  enum class Kind {
    kEmpty,     ///< default-constructed or already consumed
    kResident,  ///< in-memory MergeTable
    kSpill,     ///< MEMMERGT file on disk
  };

  Kind kind_ = Kind::kEmpty;
  MergeTable table_;             // kResident
  std::string path_;             // kSpill
  util::ArtifactOpenOptions options_;
  bool owns_file_ = false;
};

}  // namespace multiem::core

#endif  // MULTIEM_CORE_MERGE_SOURCE_H_
