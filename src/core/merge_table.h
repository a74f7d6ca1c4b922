#ifndef MULTIEM_CORE_MERGE_TABLE_H_
#define MULTIEM_CORE_MERGE_TABLE_H_

#include <cstddef>
#include <functional>
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
/// a candidate tuple of entities merged so far. Members stay sorted. Only a
/// serving table (ItemTable) holds items with no members: its tombstones.
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
  /// The shared, immutable matrix of source `s`; views of it may keep it.
  const std::shared_ptr<const embed::EmbeddingMatrix>& shared_source(
      size_t s) const {
    return sources_[s];
  }

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

  /// Writes the vector of an item with sorted `members` into `out` (dim()
  /// floats): a one-member item's own row, Centroid(members) otherwise. Every
  /// item vector the library makes is this function of the member list —
  /// TwoTableMerger::Merge writes it for merged items and carries it
  /// unchanged, and a serving session (ItemTable) stores no vectors at all
  /// but derives each one here when it needs it.
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

/// The one codec of the items/rows layout that MEMMERGT spills and serving
/// manifests share: an "items" section (u64 item count, then per item a u64
/// member count and the packed member ids) and a `rows_section` matrix in
/// embed::WriteMatrix form, one `dim`-float row per item. MEMMERGT files
/// name the rows "embeddings", the serving manifest "centroids". Item i's
/// members come from `members(i)`; its row is what `row(i, scratch)`
/// returns, a span of its own storage or `scratch` (dim floats) filled.
/// Rows stream straight into the section, so no gathered matrix is made.
void WriteItemSections(
    util::ArtifactWriter& writer, std::string_view rows_section,
    size_t num_items, size_t dim,
    const std::function<std::span<const table::EntityId>(size_t)>& members,
    const std::function<std::span<const float>(size_t, std::span<float>)>&
        row);

/// What ReadItemSections parsed: the member lists, and the rows as a view
/// over their section where alignment allows (a copy otherwise).
struct ItemSections {
  std::vector<MergeItem> items;
  embed::EmbeddingMatrix rows;
};

/// Reads what WriteItemSections wrote and checks that the rows section
/// holds one row per item. Zero-member items (tombstones) load only with
/// `allow_tombstones`. Every count is bounded by the bytes left before
/// anything is reserved.
util::Result<ItemSections> ReadItemSections(const util::ArtifactReader& reader,
                                            std::string_view rows_section,
                                            bool allow_tombstones);

/// A table in the merging hierarchy: items plus one embedding per item
/// (the E_i of Algorithm 2/3 after the first hierarchy level).
///
/// Storage is chunked: items and their embedding rows live in fixed-size
/// blocks held through shared_ptr, so copying a MergeTable (a resident
/// MergeSource::Materialize) is O(num_chunks) pointer copies, and an Append
/// to a copy clones only the last chunk. The chunks of a leaf table view
/// the store's source matrix, and those of a mapped MEMMERGT load view the
/// mapped pages; either copies its rows only when written.
class MergeTable {
 public:
  /// Items per chunk. At dim 64 a chunk's embedding block is 1 MiB.
  static constexpr size_t kChunkItems = 4096;

  /// Magic + format version of a standalone merge-table artifact file
  /// (MEMMERGT), the spill format of spilled merge execution
  /// (MergeExecOptions::Spilled).
  static constexpr uint64_t kArtifactMagic = util::ArtifactMagic("MEMMERGT");
  static constexpr uint32_t kArtifactVersion = 1;

  MergeTable() = default;

  /// Initial merge table of source `source` of `store`: item i = entity
  /// (source, i), whose row is a view of the store's row — no float is
  /// copied, and the chunks keep the source matrix alive.
  static MergeTable FromSource(const EntityEmbeddingStore& store,
                               uint32_t source);

  size_t num_items() const { return num_items_; }

  /// Embedding dimensionality (0 until the first Append/Reserve fixes it).
  size_t dim() const { return dim_; }

  const MergeItem& item(size_t i) const {
    return chunks_[i / kChunkItems]->items[i % kChunkItems];
  }

  /// Representation of item `i`. Read through a const matrix: a view
  /// chunk's rows must not be copied by a read.
  std::span<const float> Row(size_t i) const {
    const embed::EmbeddingMatrix& rows = chunks_[i / kChunkItems]->embeddings;
    return rows.Row(i % kChunkItems);
  }

  /// Appends an item with its representation.
  void Append(MergeItem item, std::span<const float> embedding);

  /// Reserves space for `n` items of dimension `dim`.
  void Reserve(size_t n, size_t dim);

  /// All item representations gathered into one contiguous matrix (row i =
  /// item i). O(num_items * dim) copy — what a merge's mutual top-K scans.
  embed::EmbeddingMatrix GatherEmbeddings() const;

  /// Total number of entity memberships across items.
  size_t TotalMembers() const;

  /// Approximate bytes reachable through this table (shared chunks are
  /// counted in full; view rows count the bytes they view).
  size_t SizeBytes() const;

  /// Writes this table to `path` as a standalone MEMMERGT artifact file
  /// (items + embeddings; docs/FORMATS.md).
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

  /// A table whose chunks hold `items` and view the matching rows of
  /// `rows` (one per item), keeping it alive until each chunk is written.
  static MergeTable FromParts(
      std::vector<MergeItem> items,
      std::shared_ptr<const embed::EmbeddingMatrix> rows);

  /// The chunk holding item `i`, cloned first if any other table shares it.
  Chunk* MutableChunk(size_t i);

  // Only mutated through MutableChunk (copy-on-write); shared chunks are
  // never written.
  std::vector<std::shared_ptr<Chunk>> chunks_;
  size_t num_items_ = 0;
  size_t dim_ = 0;
};

}  // namespace multiem::core

#endif  // MULTIEM_CORE_MERGE_TABLE_H_
