#include "core/item_table.h"

#include <algorithm>
#include <string>

namespace multiem::core {

ItemTable ItemTable::FromMergeTable(const MergeTable& table) {
  ItemTable out;
  out.chunks_.reserve((table.num_items() + kChunkItems - 1) / kChunkItems);
  for (size_t i = 0; i < table.num_items(); ++i) {
    out.Append(table.item(i).members);
  }
  return out;
}

void ItemTable::Vector(size_t i, const EntityEmbeddingStore& store,
                       std::span<float> out) const {
  const std::vector<table::EntityId>& ids = members(i);
  if (!ids.empty()) {
    store.ItemVector(ids, out);
    return;
  }
  const std::vector<float>& stashed =
      *chunks_[i / kChunkItems]->retired.at(i % kChunkItems);
  std::copy(stashed.begin(), stashed.end(), out.begin());
}

embed::EmbeddingMatrix ItemTable::GatherVectors(
    const EntityEmbeddingStore& store) const {
  embed::EmbeddingMatrix out(num_items_, store.dim());
  for (size_t i = 0; i < num_items_; ++i) Vector(i, store, out.Row(i));
  return out;
}

ItemTable::Chunk* ItemTable::MutableChunk(size_t i) {
  std::shared_ptr<Chunk>& slot = chunks_[i / kChunkItems];
  // use_count() == 1 is a stable claim here: every copy of an ItemTable is
  // made by the single serializing writer (AddTable holds the write mutex),
  // and a concurrent release by a retiring epoch can only make a shared
  // count look *higher* than it is — never lower.
  if (slot.use_count() != 1) slot = std::make_shared<Chunk>(*slot);
  return slot.get();
}

void ItemTable::Append(std::vector<table::EntityId> members) {
  if (num_items_ / kChunkItems == chunks_.size()) {
    chunks_.push_back(std::make_shared<Chunk>());
  }
  MutableChunk(num_items_)->items.push_back(MergeItem{std::move(members)});
  ++num_items_;
}

void ItemTable::Replace(size_t i, std::vector<table::EntityId> members) {
  MutableChunk(i)->items[i % kChunkItems].members = std::move(members);
}

void ItemTable::Tombstone(size_t i, std::span<const float> vector) {
  Chunk* chunk = MutableChunk(i);
  std::vector<table::EntityId>& ids = chunk->items[i % kChunkItems].members;
  ids.clear();
  ids.shrink_to_fit();
  chunk->retired[i % kChunkItems] =
      std::make_shared<const std::vector<float>>(vector.begin(), vector.end());
  ++num_tombstones_;
}

void ItemTable::WriteSections(util::ArtifactWriter& writer,
                              const EntityEmbeddingStore& store) const {
  WriteItemSections(
      writer, "centroids", num_items_, store.dim(),
      [&](size_t i) { return std::span<const table::EntityId>(members(i)); },
      [&](size_t i, std::span<float> scratch) {
        Vector(i, store, scratch);
        return std::span<const float>(scratch);
      });
}

util::Result<ItemTable> ItemTable::ReadSections(
    const util::ArtifactReader& reader, size_t dim, bool allow_tombstones) {
  auto sections = ReadItemSections(reader, "centroids", allow_tombstones);
  if (!sections.ok()) return sections.status();
  if (sections->rows.dim() != dim) {
    return util::Status::InvalidArgument(
        "manifest centroids are " + std::to_string(sections->rows.dim()) +
        "-dimensional, base embeddings " + std::to_string(dim));
  }
  ItemTable out;
  const size_t n = sections->items.size();
  out.chunks_.reserve((n + kChunkItems - 1) / kChunkItems);
  for (size_t i = 0; i < n; ++i) {
    std::vector<table::EntityId>& ids = sections->items[i].members;
    const bool tombstone = ids.empty();
    out.Append(std::move(ids));
    if (tombstone) out.Tombstone(i, sections->rows.Row(i));
  }
  return out;
}

}  // namespace multiem::core
