#ifndef MULTIEM_CORE_ITEM_TABLE_H_
#define MULTIEM_CORE_ITEM_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "core/merge_table.h"
#include "embed/embedding.h"
#include "table/entity_id.h"
#include "util/io.h"
#include "util/status.h"

namespace multiem::core {

/// The entity table of a serving session (core::Matcher): one sorted member
/// list per item and no vectors. An item's vector is a function of its
/// members and the base store (EntityEmbeddingStore::ItemVector), derived
/// wherever one is needed: AddTable's match and compaction, the manifest's
/// "centroids" section, Snapshot::centroids().
///
/// Storage is chunked copy-on-write: member lists live in fixed-size blocks
/// held through shared_ptr. Copying an ItemTable is O(num_chunks) pointer
/// copies, and a mutation clones only the one chunk it touches — the
/// member lists of that chunk, never a row — so consecutive serving epochs
/// share every chunk an ingest left untouched.
///
/// An item with no members is a *tombstone*: a retired entry whose id stays
/// reserved, so later items' ids never shift across ingest epochs. It has
/// no members to derive from, so it keeps the vector it had when it was
/// retired (stashed by Tombstone, or read from a manifest): saved manifests
/// carry that row, and so every saved byte is what a session that stored
/// all its vectors would write.
class ItemTable {
 public:
  /// Items per copy-on-write chunk.
  static constexpr size_t kChunkItems = 4096;

  ItemTable() = default;

  /// The member lists of a finished merge, whose rows it drops: they are
  /// the derivation of the members by construction.
  static ItemTable FromMergeTable(const MergeTable& table);

  size_t num_items() const { return num_items_; }
  /// Items with no members (retired entries; see the class comment).
  size_t num_tombstones() const { return num_tombstones_; }
  size_t num_live_items() const { return num_items_ - num_tombstones_; }

  /// Members of item `i` (sorted; empty for a tombstone).
  const std::vector<table::EntityId>& members(size_t i) const {
    return chunks_[i / kChunkItems]->items[i % kChunkItems].members;
  }

  /// The vector of item `i`, written into `out` (store.dim() floats): the
  /// derivation of a live item's members, a tombstone's stashed row.
  void Vector(size_t i, const EntityEmbeddingStore& store,
              std::span<float> out) const;

  /// Every item's vector gathered into one matrix (row i = item i,
  /// tombstones' stashed rows included).
  embed::EmbeddingMatrix GatherVectors(const EntityEmbeddingStore& store) const;

  /// Appends a live item with sorted, non-empty `members`.
  void Append(std::vector<table::EntityId> members);

  /// Replaces the members of live item `i` (clones only its chunk).
  void Replace(size_t i, std::vector<table::EntityId> members);

  /// Retires live item `i`: its members are cleared and `vector`, its
  /// vector until now, is stashed for saves. Clones only its chunk.
  void Tombstone(size_t i, std::span<const float> vector);

  /// Appends the manifest's "items" and "centroids" sections
  /// (WriteItemSections), each row derived from `store` as Vector does.
  void WriteSections(util::ArtifactWriter& writer,
                     const EntityEmbeddingStore& store) const;

  /// Reads what WriteSections wrote. The "centroids" section must hold one
  /// `dim`-float row per item; only the tombstones' rows are kept (copied),
  /// the live rows being what the members derive. Zero-member items load
  /// only with `allow_tombstones`.
  static util::Result<ItemTable> ReadSections(
      const util::ArtifactReader& reader, size_t dim, bool allow_tombstones);

 private:
  struct Chunk {
    std::vector<MergeItem> items;
    /// The stashed vectors of this chunk's tombstones, by item offset
    /// within the chunk; shared, so a chunk copy copies no row.
    std::map<uint32_t, std::shared_ptr<const std::vector<float>>> retired;
  };

  /// The chunk holding item `i`, cloned first if any other table shares it.
  Chunk* MutableChunk(size_t i);

  // Only mutated through MutableChunk (copy-on-write) or while exclusively
  // owned (the append path); shared chunks are never written.
  std::vector<std::shared_ptr<Chunk>> chunks_;
  size_t num_items_ = 0;
  size_t num_tombstones_ = 0;
};

}  // namespace multiem::core

#endif  // MULTIEM_CORE_ITEM_TABLE_H_
