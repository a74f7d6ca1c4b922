/// \file sharded_matcher.h
/// Shard-routed serving over a finished build: the integrated entity table
/// is cut into contiguous item ranges, each range gets its own ANN index,
/// and a query fans out to every shard with the per-shard top-k merged
/// k-way by ascending (distance, item id) — the same total order a single
/// union index sorts by, so under an exact index the answers are *equal* to
/// Matcher::MatchRecords over one global index, not merely similar.
///
/// This is the serving half of the distrib subsystem: a deployment can
/// build per-shard indexes in parallel (or on different machines), route
/// every query to all shards, and still serve the single-index answer.

#ifndef MULTIEM_DISTRIB_SHARDED_MATCHER_H_
#define MULTIEM_DISTRIB_SHARDED_MATCHER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ann/index.h"
#include "core/matcher.h"
#include "table/table.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace multiem::distrib {

/// A scatter-gather serving session over one pinned Matcher epoch.
/// Move-only; the underlying epoch (entity table, encoder, selection) is
/// pinned through a core::Matcher::Snapshot, so the source Matcher may be
/// destroyed or keep ingesting after Build without affecting answers here.
class ShardedMatcher {
 public:
  /// Cuts the matcher's current epoch into `num_shards` contiguous live-item
  /// ranges (clamped to the live item count) and builds one index per range
  /// with the factory registered under the matcher's config `index_name`
  /// (builder-injected factory instances are not visible here). `pool`
  /// parallelizes the per-shard index builds.
  static util::Result<ShardedMatcher> Build(const core::Matcher& matcher,
                                            size_t num_shards,
                                            util::ThreadPool* pool = nullptr);

  ShardedMatcher(ShardedMatcher&&) = default;
  ShardedMatcher& operator=(ShardedMatcher&&) = default;
  ShardedMatcher(const ShardedMatcher&) = delete;
  ShardedMatcher& operator=(const ShardedMatcher&) = delete;

  /// Serves every row of `records` (session schema required): serialize
  /// with the run's selected attributes, encode with the fitted encoder,
  /// search every shard, and k-way merge to the global top-k by ascending
  /// (distance, item). Item ids resolve against the pinned epoch
  /// (`snapshot()`). `pool` fans the query rows out.
  util::Result<std::vector<std::vector<core::RecordMatch>>> MatchRecords(
      const table::Table& records, size_t k,
      util::ThreadPool* pool = nullptr) const;

  size_t num_shards() const { return indexes_.size(); }
  /// Live items served across all shards.
  size_t num_items() const;
  /// Global item ids of shard `sh`, ascending (tests, diagnostics).
  const std::vector<uint32_t>& shard_items(size_t sh) const {
    return items_[sh];
  }

  /// The pinned epoch item ids resolve against.
  const core::Matcher::Snapshot& snapshot() const { return snapshot_; }

 private:
  ShardedMatcher(core::Matcher::Snapshot snapshot,
                 const core::Matcher& matcher)
      : snapshot_(std::move(snapshot)),
        config_(matcher.config()),
        selection_(matcher.selection()),
        schema_names_(matcher.schema_names()),
        encoder_(&matcher.encoder()) {}

  core::Matcher::Snapshot snapshot_;
  core::MultiEmConfig config_;
  core::AttributeSelection selection_;
  std::vector<std::string> schema_names_;
  /// Owned by the Matcher's Fixed state, which `snapshot_` keeps alive.
  const embed::TextEncoder* encoder_;
  std::vector<std::unique_ptr<ann::VectorIndex>> indexes_;
  /// Per shard: local slot -> global item id (ascending).
  std::vector<std::vector<uint32_t>> items_;
};

}  // namespace multiem::distrib

#endif  // MULTIEM_DISTRIB_SHARDED_MATCHER_H_
