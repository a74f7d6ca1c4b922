#include "distrib/sharded_matcher.h"

#include <algorithm>
#include <utility>

#include "ann/metric.h"
#include "core/registry.h"
#include "embed/serialize.h"

namespace multiem::distrib {

util::Result<ShardedMatcher> ShardedMatcher::Build(
    const core::Matcher& matcher, size_t num_shards, util::ThreadPool* pool) {
  if (num_shards == 0) {
    return util::Status::InvalidArgument("num_shards must be >= 1");
  }
  auto factory = core::IndexFactories().Create(
      matcher.config().index_name, matcher.config());
  if (!factory.ok()) return factory.status();

  core::Matcher::Snapshot snapshot = matcher.snapshot();
  ShardedMatcher sharded(snapshot, matcher);

  // Live items in ascending id order; tombstones (retired serving entries)
  // never get an index slot, matching Matcher's own serving behavior.
  std::vector<uint32_t> live;
  live.reserve(snapshot.num_live_items());
  for (size_t i = 0; i < snapshot.num_items(); ++i) {
    if (!snapshot.item_members(i).empty()) {
      live.push_back(static_cast<uint32_t>(i));
    }
  }

  const size_t shards = std::max<size_t>(
      1, std::min(num_shards, live.empty() ? 1 : live.size()));
  const size_t dim = matcher.encoder().dim();
  const embed::EmbeddingMatrix centroids = snapshot.centroids();
  size_t chunk = live.size() / shards;
  size_t rem = live.size() % shards;
  size_t pos = 0;
  for (size_t sh = 0; sh < shards; ++sh) {
    size_t count = chunk + (sh < rem ? 1 : 0);
    std::vector<uint32_t> ids(live.begin() + pos, live.begin() + pos + count);
    pos += count;
    embed::EmbeddingMatrix rows(ids.size(), dim);
    for (size_t i = 0; i < ids.size(); ++i) {
      std::span<const float> src = centroids.Row(ids[i]);
      std::copy(src.begin(), src.end(), rows.Row(i).begin());
    }
    std::unique_ptr<ann::VectorIndex> index =
        (*factory)->Create(dim, ann::Metric::kCosine);
    index->AddBatch(rows, pool);
    sharded.indexes_.push_back(std::move(index));
    sharded.items_.push_back(std::move(ids));
  }
  return sharded;
}

size_t ShardedMatcher::num_items() const {
  size_t total = 0;
  for (const std::vector<uint32_t>& ids : items_) total += ids.size();
  return total;
}

util::Result<std::vector<std::vector<core::RecordMatch>>>
ShardedMatcher::MatchRecords(const table::Table& records, size_t k,
                             util::ThreadPool* pool) const {
  if (k == 0) {
    return util::Status::InvalidArgument("k must be >= 1");
  }
  if (records.schema().names() != schema_names_) {
    return util::Status::InvalidArgument(
        "query table '" + records.name() +
        "' does not carry the session schema");
  }
  std::vector<std::string> texts =
      embed::SerializeTable(records, selection_.selected_columns);
  embed::EmbeddingMatrix queries = encoder_->EncodeBatch(texts, pool);

  std::vector<std::vector<core::RecordMatch>> results(queries.num_rows());
  util::ParallelFor(pool, queries.num_rows(), [&](size_t row) {
    // Scatter: per-shard top-k. Gather: global top-k under the total order
    // (distance, item id) — identical to one union index's ordering, since
    // local->global id mapping is monotonic within each shard.
    std::vector<core::RecordMatch> merged;
    for (size_t sh = 0; sh < indexes_.size(); ++sh) {
      std::vector<ann::Neighbor> hits = indexes_[sh]->Search(
          queries.Row(row), std::min(k, items_[sh].size()));
      for (const ann::Neighbor& hit : hits) {
        merged.push_back(
            core::RecordMatch{items_[sh][hit.id], hit.distance});
      }
    }
    std::sort(merged.begin(), merged.end(),
              [](const core::RecordMatch& a, const core::RecordMatch& b) {
                return a.distance != b.distance ? a.distance < b.distance
                                                : a.item < b.item;
              });
    if (merged.size() > k) merged.resize(k);
    results[row] = std::move(merged);
  });
  return results;
}

}  // namespace multiem::distrib
