#ifndef MULTIEM_CORE_MERGE_TABLE_H_
#define MULTIEM_CORE_MERGE_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "embed/embedding.h"
#include "table/entity_id.h"
#include "util/io.h"
#include "util/status.h"

namespace multiem::core {

/// Read-only store of the embeddings of every original entity, indexed by
/// EntityId (per-source matrices). Built once in the representation phase;
/// merged-item centroids are recomputed from these base vectors so centroid
/// drift never accumulates across hierarchies.
///
/// Source matrices are held through shared_ptr and are immutable once added,
/// so copying a store is O(num_sources) pointer copies — the serving layer
/// (core::Matcher) relies on this to snapshot the store per ingest epoch
/// without duplicating the embedding payload.
class EntityEmbeddingStore {
 public:
  EntityEmbeddingStore() = default;

  /// Adds the embedding matrix of the next source (source ids are assigned
  /// in call order: first call = source 0, ...).
  void AddSource(embed::EmbeddingMatrix embeddings) {
    sources_.push_back(
        std::make_shared<const embed::EmbeddingMatrix>(std::move(embeddings)));
  }

  /// Embedding of entity `id`.
  std::span<const float> Row(table::EntityId id) const {
    return sources_[id.source()]->Row(id.row());
  }

  size_t num_sources() const { return sources_.size(); }
  const embed::EmbeddingMatrix& source(size_t s) const { return *sources_[s]; }

  /// Embedding dimensionality (0 when empty).
  size_t dim() const { return sources_.empty() ? 0 : sources_[0]->dim(); }

  /// Writes the representation of a merged item (Algorithm 3) into `out`
  /// (dim() floats): the L2-normalized mean of its members' embeddings.
  /// `members` must be sorted, so the summation order — and every bit of
  /// the result — depends on the member set alone. The merge phase and
  /// Matcher::AddTable both reach it through ItemVector, which keeps the
  /// pipeline's and the serving path's merged vectors bitwise equal.
  void Centroid(std::span<const table::EntityId> members,
                std::span<float> out) const;

  /// Writes the vector of an item with sorted `members` into `out` (dim()
  /// floats): a one-member item's own row, Centroid(members) otherwise. Every
  /// item vector the library uses is this function of the member list: no
  /// MergeTable stores one, and each is derived here where it is needed.
  void ItemVector(std::span<const table::EntityId> members,
                  std::span<float> out) const;

  /// Total payload bytes (memory accounting).
  size_t SizeBytes() const {
    size_t total = 0;
    for (const auto& m : sources_) total += m->SizeBytes();
    return total;
  }

 private:
  std::vector<std::shared_ptr<const embed::EmbeddingMatrix>> sources_;
};

/// The one entity table of the library: every table of the merging
/// hierarchy (the E_i of Algorithms 2 and 3) and a serving session's
/// integrated table (core::Matcher). Item i is a sorted member list — one
/// entity in an initial table, a candidate tuple of entities merged so far
/// after that — and no vector. An item's vector is a function of its
/// members and the base store (EntityEmbeddingStore::ItemVector), derived
/// wherever one is needed: a merge's mutual top-K (GatherVectors),
/// AddTable's match and compaction, Snapshot::centroids(). Saved tables
/// (MEMMERGT spills, manifests) hold the member lists alone.
///
/// Storage is chunked copy-on-write: member lists live in fixed-size blocks
/// held through shared_ptr. Copying a MergeTable (a resident
/// MergeSource::Materialize, a serving epoch) is O(num_chunks) pointer
/// copies, and a mutation clones only the one chunk it touches — member
/// lists, never a row — so consecutive serving epochs share every chunk an
/// ingest left untouched.
///
/// An item with no members is a *tombstone*, which only a serving table
/// holds: a retired entry whose id stays reserved, so later items' ids never
/// shift across ingest epochs. It has no members to derive from and no live
/// index slot; its vector reads as zeros.
class MergeTable {
 public:
  /// Items per copy-on-write chunk.
  static constexpr size_t kChunkItems = 4096;

  /// Magic + format version of a standalone merge-table artifact file
  /// (MEMMERGT), the spill format of spilled merge execution
  /// (MergeExecOptions::Spilled). v2 holds the "items" section alone; a v1
  /// file's "embeddings" rows are checked for count and width and ignored.
  static constexpr uint64_t kArtifactMagic = util::ArtifactMagic("MEMMERGT");
  static constexpr uint32_t kArtifactVersion = 2;

  MergeTable() = default;

  /// Initial merge table of source `source` of `store`: item i = entity
  /// (source, i).
  static MergeTable FromSource(const EntityEmbeddingStore& store,
                               uint32_t source);

  size_t num_items() const { return num_items_; }
  /// Items with no members (retired entries; see the class comment).
  size_t num_tombstones() const { return num_tombstones_; }
  size_t num_live_items() const { return num_items_ - num_tombstones_; }

  /// Members of item `i` (sorted; empty for a tombstone).
  const std::vector<table::EntityId>& members(size_t i) const {
    return chunks_[i / kChunkItems]->members[i % kChunkItems];
  }

  /// Every item's vector gathered into one matrix: row i is the derivation
  /// of item i's members (EntityEmbeddingStore::ItemVector), zeros for a
  /// tombstone — what a merge's mutual top-K scans.
  embed::EmbeddingMatrix GatherVectors(const EntityEmbeddingStore& store) const;

  /// Appends a live item with sorted, non-empty `members`.
  void Append(std::vector<table::EntityId> members);

  /// Replaces the members of live item `i` (clones only its chunk).
  void Replace(size_t i, std::vector<table::EntityId> members);

  /// Retires live item `i`: its members are cleared. Clones only its chunk.
  void Tombstone(size_t i);

  /// Total number of entity memberships across items.
  size_t TotalMembers() const;

  /// Approximate bytes of the member lists reachable through this table
  /// (shared chunks are counted in full).
  size_t SizeBytes() const;

  /// InvalidArgument unless every member names an entity of `store`, so a
  /// table read from disk can be derived from `store` without reading past
  /// its rows.
  util::Status CheckMembers(const EntityEmbeddingStore& store) const;

  /// Appends the "items" section that MEMMERGT files and serving manifests
  /// share: a u64 item count, then per item a u64 member count and the
  /// packed member ids.
  void WriteItems(util::ArtifactWriter& writer) const;

  /// Reads what WriteItems wrote. Zero-member items load only with
  /// `allow_tombstones`. Every count is bounded by the bytes left before
  /// anything is reserved. A file of an older version also holds one
  /// derived row per item in `legacy_rows` ("embeddings" in MEMMERGT v1,
  /// "centroids" in manifests v1–v3; empty for newer files): that matrix
  /// must hold one `dim`-float row per item, and is then ignored.
  static util::Result<MergeTable> ReadItems(const util::ArtifactReader& reader,
                                            std::string_view legacy_rows,
                                            size_t dim, bool allow_tombstones);

  /// Writes this table to `path` as a standalone MEMMERGT artifact file
  /// (WriteItems; docs/FORMATS.md).
  util::Status Save(const std::string& path) const;

  /// Loads a MEMMERGT file (v1 or v2) written over `store`: every member
  /// must pass CheckMembers, and a v1 file's rows must be store.dim() wide.
  static util::Result<MergeTable> Load(
      const std::string& path, const EntityEmbeddingStore& store,
      const util::ArtifactOpenOptions& options = {});

 private:
  struct Chunk {
    std::vector<std::vector<table::EntityId>> members;
  };

  /// The chunk holding item `i`, cloned first if any other table shares it.
  Chunk* MutableChunk(size_t i);

  // Only mutated through MutableChunk (copy-on-write); shared chunks are
  // never written.
  std::vector<std::shared_ptr<Chunk>> chunks_;
  size_t num_items_ = 0;
  size_t num_tombstones_ = 0;
};

}  // namespace multiem::core

#endif  // MULTIEM_CORE_MERGE_TABLE_H_
