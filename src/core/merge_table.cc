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

void EntityEmbeddingStore::ItemVector(
    std::span<const table::EntityId> members, std::span<float> out) const {
  if (members.size() == 1) {
    std::span<const float> row = Row(members[0]);
    std::copy(row.begin(), row.end(), out.begin());
    return;
  }
  Centroid(members, out);
}

void WriteItemSections(
    util::ArtifactWriter& writer, std::string_view rows_section,
    size_t num_items, size_t dim,
    const std::function<std::span<const table::EntityId>(size_t)>& members,
    const std::function<std::span<const float>(size_t, std::span<float>)>&
        row) {
  util::ByteWriter& items = writer.AddSection("items");
  items.WriteU64(num_items);
  for (size_t i = 0; i < num_items; ++i) {
    const std::span<const table::EntityId> ids = members(i);
    items.WriteU64(ids.size());
    for (table::EntityId id : ids) items.WriteU64(id.packed());
  }
  embed::WriteMatrixRows(writer.AddSection(std::string(rows_section)),
                         num_items, dim, row);
}

util::Result<ItemSections> ReadItemSections(const util::ArtifactReader& reader,
                                            std::string_view rows_section,
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
  ItemSections out;
  out.items.resize(static_cast<size_t>(num_items));
  for (size_t i = 0; i < out.items.size(); ++i) {
    uint64_t member_count;
    MULTIEM_RETURN_IF_ERROR(items_section->ReadU64(&member_count));
    if ((member_count == 0 && !allow_tombstones) ||
        member_count > items_section->remaining() / 8) {
      return util::Status::InvalidArgument(
          "merge table item " + std::to_string(i) + " claims " +
          std::to_string(member_count) + " members");
    }
    std::vector<table::EntityId>& members = out.items[i].members;
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
  MULTIEM_RETURN_IF_ERROR(embed::ReadMatrix(*rows, &out.rows));
  MULTIEM_RETURN_IF_ERROR(rows->ExpectExhausted());
  if (out.rows.num_rows() != num_items) {
    return util::Status::InvalidArgument(
        "merge table holds " + std::to_string(out.rows.num_rows()) +
        " rows for " + std::to_string(num_items) + " items");
  }
  return out;
}

MergeTable MergeTable::FromSource(const EntityEmbeddingStore& store,
                                  uint32_t source) {
  const size_t n = store.source(source).num_rows();
  std::vector<MergeItem> items(n);
  for (size_t r = 0; r < n; ++r) {
    items[r].members.push_back(table::EntityId(source, r));
  }
  return FromParts(std::move(items), store.shared_source(source));
}

MergeTable MergeTable::FromParts(
    std::vector<MergeItem> items,
    std::shared_ptr<const embed::EmbeddingMatrix> rows) {
  MergeTable out;
  out.dim_ = rows->dim();
  const size_t n = items.size();
  out.chunks_.reserve((n + kChunkItems - 1) / kChunkItems);
  for (size_t begin = 0; begin < n; begin += kChunkItems) {
    const size_t count = std::min(kChunkItems, n - begin);
    auto chunk = std::make_shared<Chunk>();
    chunk->items.assign(std::make_move_iterator(items.begin() + begin),
                        std::make_move_iterator(items.begin() + begin + count));
    chunk->embeddings = embed::EmbeddingMatrix::FromView(
        out.dim_, rows->data().subspan(begin * out.dim_, count * out.dim_),
        rows);
    out.chunks_.push_back(std::move(chunk));
  }
  out.num_items_ = n;
  return out;
}

MergeTable::Chunk* MergeTable::MutableChunk(size_t i) {
  std::shared_ptr<Chunk>& slot = chunks_[i / kChunkItems];
  if (slot.use_count() != 1) slot = std::make_shared<Chunk>(*slot);
  return slot.get();
}

void MergeTable::Append(MergeItem item, std::span<const float> embedding) {
  if (dim_ == 0) dim_ = embedding.size();
  if (num_items_ / kChunkItems == chunks_.size()) {
    chunks_.push_back(std::make_shared<Chunk>());
  }
  Chunk* chunk = MutableChunk(num_items_);
  chunk->items.push_back(std::move(item));
  chunk->embeddings.AppendRow(embedding);
  ++num_items_;
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

util::Status MergeTable::Save(const std::string& path) const {
  util::ArtifactWriter writer(kArtifactMagic, kArtifactVersion);
  WriteItemSections(
      writer, "embeddings", num_items_, dim_,
      [&](size_t i) { return std::span<const table::EntityId>(item(i).members); },
      [&](size_t i, std::span<float>) { return Row(i); });
  return writer.WriteFile(path);
}

util::Result<MergeTable> MergeTable::Load(
    const std::string& path, const util::ArtifactOpenOptions& options) {
  auto reader = util::ArtifactReader::FromFile(path, kArtifactMagic,
                                               kArtifactVersion, options);
  if (!reader.ok()) return reader.status();
  auto sections =
      ReadItemSections(*reader, "embeddings", /*allow_tombstones=*/false);
  if (!sections.ok()) return sections.status();
  MergeTable table = FromParts(
      std::move(sections->items),
      std::make_shared<const embed::EmbeddingMatrix>(
          std::move(sections->rows)));
  // A spill reload feeds the next merge, which rewrites every chunk. On a
  // heap open give the chunks their own rows now, so the section block dies
  // with this call instead of lingering until the last chunk is written.
  if (!reader->mapped()) {
    for (const std::shared_ptr<Chunk>& chunk : table.chunks_) {
      chunk->embeddings.EnsureOwned();
    }
  }
  return table;
}

}  // namespace multiem::core
