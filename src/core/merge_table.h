#ifndef MULTIEM_CORE_MERGE_TABLE_H_
#define MULTIEM_CORE_MERGE_TABLE_H_

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "embed/embedding.h"
#include "table/entity_id.h"
#include "util/io.h"
#include "util/status.h"

namespace multiem::core {

/// One item of a merge table: either a single entity (initial hierarchy) or
/// a candidate tuple of entities merged so far. Members stay sorted. An item
/// with no members is a *tombstone*: a retired serving-table entry whose
/// index keeps later items' ids stable across ingest epochs (see
/// Matcher::AddTable); merge tables inside the pipeline never carry them.
struct MergeItem {
  std::vector<table::EntityId> members;
};

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
  /// the result — depends on the member set alone. TwoTableMerger::Merge
  /// and Matcher::AddTable both call this, which keeps the pipeline's and
  /// the serving path's merged vectors bitwise equal.
  void Centroid(std::span<const table::EntityId> members,
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

/// A table in the merging hierarchy: items plus one embedding per item
/// (the E_i of Algorithm 2/3 after the first hierarchy level).
///
/// Storage is chunked copy-on-write: items and their embedding rows live in
/// fixed-size blocks held through shared_ptr. Copying a MergeTable is
/// O(num_chunks) pointer copies, and a mutation clones only the one chunk it
/// touches — consecutive serving epochs (Matcher::AddTable) share every
/// chunk the ingest left untouched instead of duplicating the whole table.
/// Chunks loaded from an artifact manifest keep their embedding rows as
/// views over the loaded section (heap block or mapped pages) until first
/// mutated.
class MergeTable {
 public:
  /// Items per copy-on-write chunk. At dim 64 a chunk's embedding block is
  /// 1 MiB — small enough that cloning one on a point mutation is cheap,
  /// large enough that a million-item table is ~256 chunk pointers.
  static constexpr size_t kChunkItems = 4096;

  /// Magic + format version of a standalone merge-table artifact file
  /// (MEMMERGT), the spill format of spilled merge execution
  /// (MergeExecOptions::Spilled).
  static constexpr uint64_t kArtifactMagic = util::ArtifactMagic("MEMMERGT");
  static constexpr uint32_t kArtifactVersion = 1;

  MergeTable() = default;

  /// Initial merge table of one source: item i = entity (source, i), with
  /// the entity's own embedding.
  static MergeTable FromSource(uint32_t source,
                               const embed::EmbeddingMatrix& embeddings);

  /// Builds a table from parallel columns: item i gets `items[i]` and row i
  /// of `embeddings` (sizes must agree). When `embeddings` is a view (the
  /// artifact load path) the chunks alias its rows — no float is
  /// copied. Empty-member items are accepted as tombstones.
  static MergeTable FromParts(std::vector<MergeItem> items,
                              const embed::EmbeddingMatrix& embeddings);

  size_t num_items() const { return num_items_; }
  /// Items with no members (retired serving entries; see MergeItem).
  size_t num_tombstones() const { return num_tombstones_; }
  size_t num_live_items() const { return num_items_ - num_tombstones_; }

  /// Embedding dimensionality (0 until the first Append/Reserve fixes it).
  size_t dim() const { return dim_; }

  const MergeItem& item(size_t i) const {
    return chunks_[i / kChunkItems]->items[i % kChunkItems];
  }

  /// Representation of item `i`.
  std::span<const float> Row(size_t i) const {
    return chunks_[i / kChunkItems]->embeddings.Row(i % kChunkItems);
  }

  /// Appends an item with its representation.
  void Append(MergeItem item, std::span<const float> embedding);

  /// Replaces item `i`'s members and representation (clones only its chunk).
  void ReplaceItem(size_t i, MergeItem item, std::span<const float> embedding);

  /// Retires item `i`: members are cleared (the embedding row is left in
  /// place but must no longer be served). Clones only its chunk.
  void TombstoneItem(size_t i);

  /// Reserves space for `n` items of dimension `dim`.
  void Reserve(size_t n, size_t dim);

  /// All item representations gathered into one contiguous matrix (row i =
  /// item i, tombstone rows included). O(num_items * dim) copy — for index
  /// rebuilds and serialization, not per-query paths.
  embed::EmbeddingMatrix GatherEmbeddings() const;

  /// Total number of entity memberships across items.
  size_t TotalMembers() const;

  /// Approximate heap bytes reachable through this table (shared chunks are
  /// counted in full; mapped view rows count their mapped bytes).
  size_t SizeBytes() const;

  /// The one codec of a merge table: appends the "items" section (u64 item
  /// count, then per item a u64 member count and the packed member ids)
  /// and the `rows_section` matrix, one row per item. MEMMERGT files name
  /// the rows "embeddings", the serving manifest "centroids".
  void WriteSections(util::ArtifactWriter& writer,
                     std::string_view rows_section) const;

  /// Reads what WriteSections wrote. Zero-member items (tombstones) load
  /// only with `allow_tombstones`. Every count is bounded by the bytes left
  /// before anything is reserved. The chunks alias the rows in place (heap
  /// block or mapping).
  static util::Result<MergeTable> ReadSections(
      const util::ArtifactReader& reader, std::string_view rows_section,
      bool allow_tombstones);

  /// Writes this table to `path` as a standalone MEMMERGT artifact file
  /// (items + embeddings; docs/FORMATS.md). Tombstones are not allowed —
  /// this is the pipeline/spill format, not the serving manifest.
  util::Status Save(const std::string& path) const;

  /// Loads a MEMMERGT file. With `options` mapping the file, embedding rows
  /// alias the mapped pages; a heap open copies them into the chunks.
  static util::Result<MergeTable> Load(
      const std::string& path, const util::ArtifactOpenOptions& options = {});

 private:
  struct Chunk {
    std::vector<MergeItem> items;
    embed::EmbeddingMatrix embeddings;
  };

  /// The chunk holding item `i`, cloned first if any other table shares it.
  Chunk* MutableChunk(size_t i);

  // Only mutated through MutableChunk (copy-on-write) or while exclusively
  // owned (the append path); shared chunks are never written.
  std::vector<std::shared_ptr<Chunk>> chunks_;
  size_t num_items_ = 0;
  size_t num_tombstones_ = 0;
  size_t dim_ = 0;
};

}  // namespace multiem::core

#endif  // MULTIEM_CORE_MERGE_TABLE_H_
