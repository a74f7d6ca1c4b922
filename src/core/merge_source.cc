#include "core/merge_source.h"

#include <filesystem>
#include <system_error>
#include <utility>

namespace multiem::core {

MergeSource MergeSource::FromTable(MergeTable table) {
  MergeSource source;
  source.kind_ = Kind::kResident;
  source.table_ = std::move(table);
  return source;
}

MergeSource MergeSource::FromSpill(std::string path,
                                   util::ArtifactOpenOptions options,
                                   bool owns_file) {
  MergeSource source;
  source.kind_ = Kind::kSpill;
  source.path_ = std::move(path);
  source.options_ = options;
  source.owns_file_ = owns_file;
  return source;
}

util::Result<MergeTable> MergeSource::Materialize(
    const EntityEmbeddingStore& store) const {
  switch (kind_) {
    case Kind::kEmpty:
      return util::Status::FailedPrecondition(
          "materializing an empty merge source (already consumed?)");
    case Kind::kResident:
      // Chunk-sharing copy: CoW chunks make this O(chunks), and a later
      // mutation of either copy clones only the touched chunk.
      return MergeTable(table_);
    case Kind::kSpill:
      return MergeTable::Load(path_, store, options_);
  }
  return util::Status::Internal("corrupt merge source kind");
}

util::Result<MergeTable> MergeSource::Acquire(
    const EntityEmbeddingStore& store) {
  if (kind_ == Kind::kResident) {
    kind_ = Kind::kEmpty;
    return std::move(table_);
  }
  auto table = Materialize(store);
  if (!table.ok()) return table.status();
  kind_ = Kind::kEmpty;
  // Keep path_ and owns_file_: RemoveBackingFile stays callable after the
  // consuming load so callers can drop the file once its successor exists.
  return table;
}

void MergeSource::RemoveBackingFile() {
  if (!owns_file_ || path_.empty()) return;
  std::error_code ignored;
  std::filesystem::remove(path_, ignored);
  owns_file_ = false;
}

}  // namespace multiem::core
