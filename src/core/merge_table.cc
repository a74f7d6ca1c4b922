#include "core/merge_table.h"

#include <algorithm>

#include "embed/matrix_io.h"

namespace multiem::core {

void EntityEmbeddingStore::Centroid(std::span<const table::EntityId> members,
                                    std::span<float> out) const {
  std::fill(out.begin(), out.end(), 0.0f);
  for (table::EntityId member : members) {
    std::span<const float> row = Row(member);
    for (size_t d = 0; d < out.size(); ++d) out[d] += row[d];
  }
  const float inv = 1.0f / static_cast<float>(members.size());
  for (float& x : out) x *= inv;
  embed::L2NormalizeInPlace(out);
}

void EntityEmbeddingStore::ItemVector(
    std::span<const table::EntityId> members, std::span<float> out) const {
  if (members.size() == 1) {
    std::span<const float> row = Row(members[0]);
    std::copy(row.begin(), row.end(), out.begin());
    return;
  }
  Centroid(members, out);
}

MergeTable MergeTable::FromSource(const EntityEmbeddingStore& store,
                                  uint32_t source) {
  const size_t n = store.source(source).num_rows();
  MergeTable out;
  out.chunks_.reserve((n + kChunkItems - 1) / kChunkItems);
  for (size_t r = 0; r < n; ++r) out.Append({table::EntityId(source, r)});
  return out;
}

embed::EmbeddingMatrix MergeTable::GatherVectors(
    const EntityEmbeddingStore& store) const {
  embed::EmbeddingMatrix out(num_items_, store.dim());  // zero-filled
  for (size_t i = 0; i < num_items_; ++i) {
    if (!members(i).empty()) store.ItemVector(members(i), out.Row(i));
  }
  return out;
}

MergeTable::Chunk* MergeTable::MutableChunk(size_t i) {
  std::shared_ptr<Chunk>& slot = chunks_[i / kChunkItems];
  // use_count() == 1 is a stable claim here: every copy of a table is made
  // by the thread that mutates it (a serving session's copies by the
  // single serializing writer, AddTable under the write mutex), and a
  // concurrent release by a retiring epoch can only make a shared count
  // look *higher* than it is — never lower.
  if (slot.use_count() != 1) slot = std::make_shared<Chunk>(*slot);
  return slot.get();
}

void MergeTable::Append(std::vector<table::EntityId> members) {
  if (num_items_ / kChunkItems == chunks_.size()) {
    chunks_.push_back(std::make_shared<Chunk>());
  }
  MutableChunk(num_items_)->members.push_back(std::move(members));
  ++num_items_;
}

void MergeTable::Replace(size_t i, std::vector<table::EntityId> members) {
  MutableChunk(i)->members[i % kChunkItems] = std::move(members);
}

void MergeTable::Tombstone(size_t i) {
  std::vector<table::EntityId>& ids = MutableChunk(i)->members[i % kChunkItems];
  ids.clear();
  ids.shrink_to_fit();
  ++num_tombstones_;
}

size_t MergeTable::TotalMembers() const {
  size_t total = 0;
  for (const std::shared_ptr<Chunk>& chunk : chunks_) {
    for (const std::vector<table::EntityId>& ids : chunk->members) {
      total += ids.size();
    }
  }
  return total;
}

size_t MergeTable::SizeBytes() const {
  size_t bytes = 0;
  for (const std::shared_ptr<Chunk>& chunk : chunks_) {
    for (const std::vector<table::EntityId>& ids : chunk->members) {
      bytes += sizeof(ids) + ids.capacity() * sizeof(table::EntityId);
    }
  }
  return bytes;
}

util::Status MergeTable::CheckMembers(const EntityEmbeddingStore& store) const {
  for (const std::shared_ptr<Chunk>& chunk : chunks_) {
    for (const std::vector<table::EntityId>& ids : chunk->members) {
      for (table::EntityId id : ids) {
        if (id.source() >= store.num_sources() ||
            id.row() >= store.source(id.source()).num_rows()) {
          return util::Status::InvalidArgument(
              "merge table references unknown entity " + id.ToString());
        }
      }
    }
  }
  return util::Status::Ok();
}

void MergeTable::WriteItems(util::ArtifactWriter& writer) const {
  util::ByteWriter& items = writer.AddSection("items");
  items.WriteU64(num_items_);
  for (size_t i = 0; i < num_items_; ++i) {
    const std::vector<table::EntityId>& ids = members(i);
    items.WriteU64(ids.size());
    for (table::EntityId id : ids) items.WriteU64(id.packed());
  }
}

util::Result<MergeTable> MergeTable::ReadItems(
    const util::ArtifactReader& reader, std::string_view legacy_rows,
    size_t dim, bool allow_tombstones) {
  auto items = reader.Section("items");
  if (!items.ok()) return items.status();
  uint64_t num_items;
  MULTIEM_RETURN_IF_ERROR(items->ReadU64(&num_items));
  // Every item costs at least its u64 member count.
  if (num_items > items->remaining() / 8) {
    return util::Status::InvalidArgument(
        "merge table claims " + std::to_string(num_items) + " items in " +
        std::to_string(items->remaining()) + " section bytes");
  }
  MergeTable out;
  out.chunks_.reserve((num_items + kChunkItems - 1) / kChunkItems);
  for (size_t i = 0; i < num_items; ++i) {
    uint64_t member_count;
    MULTIEM_RETURN_IF_ERROR(items->ReadU64(&member_count));
    if ((member_count == 0 && !allow_tombstones) ||
        member_count > items->remaining() / 8) {
      return util::Status::InvalidArgument(
          "merge table item " + std::to_string(i) + " claims " +
          std::to_string(member_count) + " members");
    }
    std::vector<table::EntityId> ids;
    ids.reserve(static_cast<size_t>(member_count));
    for (uint64_t j = 0; j < member_count; ++j) {
      uint64_t packed;
      MULTIEM_RETURN_IF_ERROR(items->ReadU64(&packed));
      ids.push_back(table::EntityId::FromPacked(packed));
    }
    if (ids.empty()) ++out.num_tombstones_;
    out.Append(std::move(ids));
  }
  MULTIEM_RETURN_IF_ERROR(items->ExpectExhausted());
  if (legacy_rows.empty()) return out;

  // An older file's derived rows: checked, never kept.
  auto section = reader.Section(legacy_rows);
  if (!section.ok()) return section.status();
  embed::EmbeddingMatrix rows;
  MULTIEM_RETURN_IF_ERROR(embed::ReadMatrix(*section, &rows));
  MULTIEM_RETURN_IF_ERROR(section->ExpectExhausted());
  if (rows.num_rows() != num_items || rows.dim() != dim) {
    return util::Status::InvalidArgument(
        "merge table \"" + std::string(legacy_rows) + "\" holds " +
        std::to_string(rows.num_rows()) + " rows of " +
        std::to_string(rows.dim()) + " floats for " +
        std::to_string(num_items) + " items of " + std::to_string(dim));
  }
  return out;
}

util::Status MergeTable::Save(const std::string& path) const {
  util::ArtifactWriter writer(kArtifactMagic, kArtifactVersion);
  WriteItems(writer);
  return writer.WriteFile(path);
}

util::Result<MergeTable> MergeTable::Load(
    const std::string& path, const EntityEmbeddingStore& store,
    const util::ArtifactOpenOptions& options) {
  auto reader = util::ArtifactReader::FromFile(path, kArtifactMagic,
                                               kArtifactVersion, options);
  if (!reader.ok()) return reader.status();
  auto table = ReadItems(*reader, reader->version() < 2 ? "embeddings" : "",
                         store.dim(), /*allow_tombstones=*/false);
  if (!table.ok()) return table.status();
  MULTIEM_RETURN_IF_ERROR(table->CheckMembers(store));
  return table;
}

}  // namespace multiem::core
