#include "core/merge_table.h"

#include <algorithm>
#include <iterator>

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

MergeTable MergeTable::FromSource(uint32_t source,
                                  const embed::EmbeddingMatrix& embeddings) {
  MergeTable out;
  out.Reserve(embeddings.num_rows(), embeddings.dim());
  for (size_t r = 0; r < embeddings.num_rows(); ++r) {
    MergeItem item;
    item.members.push_back(table::EntityId(source, r));
    out.Append(std::move(item), embeddings.Row(r));
  }
  return out;
}

MergeTable MergeTable::FromParts(std::vector<MergeItem> items,
                                 const embed::EmbeddingMatrix& embeddings) {
  MergeTable out;
  out.dim_ = embeddings.dim();
  const size_t n = items.size();
  out.chunks_.reserve((n + kChunkItems - 1) / kChunkItems);
  for (size_t begin = 0; begin < n; begin += kChunkItems) {
    const size_t count = std::min(kChunkItems, n - begin);
    auto chunk = std::make_shared<Chunk>();
    chunk->items.assign(std::make_move_iterator(items.begin() + begin),
                        std::make_move_iterator(items.begin() + begin + count));
    chunk->embeddings = embeddings.RowsView(begin, count);
    for (const MergeItem& item : chunk->items) {
      if (item.members.empty()) ++out.num_tombstones_;
    }
    out.chunks_.push_back(std::move(chunk));
  }
  out.num_items_ = n;
  return out;
}

MergeTable::Chunk* MergeTable::MutableChunk(size_t i) {
  std::shared_ptr<Chunk>& slot = chunks_[i / kChunkItems];
  // use_count() == 1 is a stable claim here: every copy of a MergeTable is
  // made by the single serializing writer (AddTable holds the write mutex),
  // and a concurrent release by a retiring epoch can only make a shared
  // count look *higher* than it is — never lower.
  if (slot.use_count() != 1) slot = std::make_shared<Chunk>(*slot);
  return slot.get();
}

void MergeTable::Append(MergeItem item, std::span<const float> embedding) {
  if (dim_ == 0) dim_ = embedding.size();
  if (item.members.empty()) ++num_tombstones_;
  if (num_items_ / kChunkItems == chunks_.size()) {
    chunks_.push_back(std::make_shared<Chunk>());
  }
  Chunk* chunk = MutableChunk(num_items_);
  chunk->items.push_back(std::move(item));
  chunk->embeddings.AppendRow(embedding);
  ++num_items_;
}

void MergeTable::ReplaceItem(size_t i, MergeItem item,
                             std::span<const float> embedding) {
  Chunk* chunk = MutableChunk(i);
  MergeItem& slot = chunk->items[i % kChunkItems];
  if (slot.members.empty() != item.members.empty()) {
    num_tombstones_ += item.members.empty() ? 1 : -1;
  }
  slot = std::move(item);
  std::span<float> row = chunk->embeddings.Row(i % kChunkItems);
  std::copy(embedding.begin(), embedding.end(), row.begin());
}

void MergeTable::TombstoneItem(size_t i) {
  Chunk* chunk = MutableChunk(i);
  MergeItem& slot = chunk->items[i % kChunkItems];
  if (slot.members.empty()) return;
  slot.members.clear();
  slot.members.shrink_to_fit();
  ++num_tombstones_;
}

void MergeTable::Reserve(size_t n, size_t dim) {
  if (dim_ == 0) dim_ = dim;
  chunks_.reserve((n + kChunkItems - 1) / kChunkItems);
}

embed::EmbeddingMatrix MergeTable::GatherEmbeddings() const {
  embed::EmbeddingMatrix out(0, dim_);
  out.ReserveRows(num_items_);
  for (const std::shared_ptr<Chunk>& chunk : chunks_) {
    out.AppendRows(chunk->embeddings.data());
  }
  return out;
}

size_t MergeTable::TotalMembers() const {
  size_t total = 0;
  for (const std::shared_ptr<Chunk>& chunk : chunks_) {
    for (const MergeItem& item : chunk->items) total += item.members.size();
  }
  return total;
}

size_t MergeTable::SizeBytes() const {
  size_t bytes = 0;
  for (const std::shared_ptr<Chunk>& chunk : chunks_) {
    bytes += chunk->embeddings.SizeBytes();
    for (const MergeItem& item : chunk->items) {
      bytes += sizeof(item) + item.members.capacity() * sizeof(table::EntityId);
    }
  }
  return bytes;
}

void MergeTable::WriteSections(util::ArtifactWriter& writer,
                               std::string_view rows_section) const {
  util::ByteWriter& items = writer.AddSection("items");
  items.WriteU64(num_items_);
  for (size_t i = 0; i < num_items_; ++i) {
    const MergeItem& it = item(i);
    items.WriteU64(it.members.size());
    for (table::EntityId id : it.members) items.WriteU64(id.packed());
  }
  embed::WriteMatrix(writer.AddSection(std::string(rows_section)),
                     GatherEmbeddings());
}

util::Result<MergeTable> MergeTable::ReadSections(
    const util::ArtifactReader& reader, std::string_view rows_section,
    bool allow_tombstones) {
  auto items_section = reader.Section("items");
  if (!items_section.ok()) return items_section.status();
  uint64_t num_items;
  MULTIEM_RETURN_IF_ERROR(items_section->ReadU64(&num_items));
  // Every item costs at least its u64 member count.
  if (num_items > items_section->remaining() / 8) {
    return util::Status::InvalidArgument(
        "merge table claims " + std::to_string(num_items) + " items in " +
        std::to_string(items_section->remaining()) + " section bytes");
  }
  std::vector<MergeItem> items(static_cast<size_t>(num_items));
  for (size_t i = 0; i < items.size(); ++i) {
    uint64_t member_count;
    MULTIEM_RETURN_IF_ERROR(items_section->ReadU64(&member_count));
    if ((member_count == 0 && !allow_tombstones) ||
        member_count > items_section->remaining() / 8) {
      return util::Status::InvalidArgument(
          "merge table item " + std::to_string(i) + " claims " +
          std::to_string(member_count) + " members");
    }
    std::vector<table::EntityId>& members = items[i].members;
    members.reserve(static_cast<size_t>(member_count));
    for (uint64_t j = 0; j < member_count; ++j) {
      uint64_t packed;
      MULTIEM_RETURN_IF_ERROR(items_section->ReadU64(&packed));
      members.push_back(table::EntityId::FromPacked(packed));
    }
  }
  MULTIEM_RETURN_IF_ERROR(items_section->ExpectExhausted());

  auto rows = reader.Section(rows_section);
  if (!rows.ok()) return rows.status();
  embed::EmbeddingMatrix embeddings;
  MULTIEM_RETURN_IF_ERROR(embed::ReadMatrix(*rows, &embeddings));
  MULTIEM_RETURN_IF_ERROR(rows->ExpectExhausted());
  if (embeddings.num_rows() != num_items) {
    return util::Status::InvalidArgument(
        "merge table holds " + std::to_string(embeddings.num_rows()) +
        " rows for " + std::to_string(num_items) + " items");
  }
  return FromParts(std::move(items), embeddings);
}

util::Status MergeTable::Save(const std::string& path) const {
  if (num_tombstones_ != 0) {
    return util::Status::InvalidArgument(
        "merge-table files do not carry tombstones (" +
        std::to_string(num_tombstones_) + " present)");
  }
  util::ArtifactWriter writer(kArtifactMagic, kArtifactVersion);
  WriteSections(writer, "embeddings");
  return writer.WriteFile(path);
}

util::Result<MergeTable> MergeTable::Load(
    const std::string& path, const util::ArtifactOpenOptions& options) {
  auto reader = util::ArtifactReader::FromFile(path, kArtifactMagic,
                                               kArtifactVersion, options);
  if (!reader.ok()) return reader.status();
  auto table = ReadSections(*reader, "embeddings", /*allow_tombstones=*/false);
  if (!table.ok()) return table.status();
  // A spill reload feeds the next merge, which rewrites every chunk. On a
  // heap open give the chunks their own rows now, so the section block dies
  // with this call instead of lingering until the last chunk is written.
  if (!reader->mapped()) {
    for (const std::shared_ptr<Chunk>& chunk : table->chunks_) {
      chunk->embeddings.EnsureOwned();
    }
  }
  return table;
}

}  // namespace multiem::core
