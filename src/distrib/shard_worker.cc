#include "distrib/shard_worker.h"

#include <algorithm>
#include <filesystem>
#include <string>
#include <utility>

#include "core/merge_source.h"
#include "core/merge_table.h"
#include "core/pipeline.h"
#include "core/two_table_merger.h"
#include "embed/matrix_io.h"

namespace multiem::distrib {

namespace {

std::vector<uint64_t> ToU64(const std::vector<size_t>& v) {
  return std::vector<uint64_t>(v.begin(), v.end());
}

}  // namespace

std::string ShardDirName(size_t worker) {
  return "shard_" + std::to_string(worker);
}

std::string ShardManifestName() { return "shard.mem"; }

std::vector<ShardAssignment> PartitionPlan(const core::MergePlan& plan,
                                           size_t num_workers) {
  if (plan.num_leaves() == 0) return {};
  size_t want =
      std::max<size_t>(1, std::min(num_workers, plan.num_leaves()));
  // The live-node count strictly shrinks per level, so the deepest level
  // that still offers `want` nodes is the one whose frontier cut hands each
  // worker the largest possible subtree.
  size_t frontier_level = 0;
  for (size_t l = 1; l <= plan.levels().size(); ++l) {
    if (plan.LiveNodesAtLevel(l).size() >= want) frontier_level = l;
  }
  std::vector<size_t> frontier = plan.LiveNodesAtLevel(frontier_level);
  std::vector<ShardAssignment> out(want);
  size_t chunk = frontier.size() / want;
  size_t rem = frontier.size() % want;
  size_t pos = 0;
  for (size_t w = 0; w < want; ++w) {
    ShardAssignment& a = out[w];
    a.worker = w;
    size_t count = chunk + (w < rem ? 1 : 0);
    for (size_t i = 0; i < count; ++i) {
      size_t root = frontier[pos++];
      a.roots.push_back(root);
      std::vector<size_t> leaves = plan.SubtreeLeaves(root);
      a.sources.insert(a.sources.end(), leaves.begin(), leaves.end());
    }
    std::sort(a.roots.begin(), a.roots.end());
    std::sort(a.sources.begin(), a.sources.end());
  }
  return out;
}

util::Status RunShardWorker(const core::MultiEmConfig& config,
                            const std::vector<table::Table>& tables,
                            const ShardAssignment& assignment,
                            const ShardWorkerOptions& options) {
  MULTIEM_RETURN_IF_ERROR(config.ValidateValues());
  core::PipelineComponents components;
  MULTIEM_RETURN_IF_ERROR(core::ResolveComponents(config, &components));
  if (options.shard_dir.empty()) {
    return util::Status::InvalidArgument("shard_dir must be set");
  }
  if (assignment.sources.empty()) {
    return util::Status::InvalidArgument(
        "shard assignment covers no sources");
  }
  for (size_t s : assignment.sources) {
    if (s >= tables.size()) {
      return util::Status::OutOfRange(
          "shard assignment names source " + std::to_string(s) + " but only " +
          std::to_string(tables.size()) + " tables were given");
    }
  }
  std::error_code ec;
  std::filesystem::create_directories(options.shard_dir, ec);
  if (ec) {
    return util::Status::Internal("cannot create shard directory '" +
                                  options.shard_dir + "': " + ec.message());
  }

  // Phases S and R over the full corpus, embedding only the covered
  // sources; the merges below only ever look up entities of those.
  embed::TextEncoder* encoder = components.encoder.get();
  auto selection =
      core::SelectAttributes(config, tables, encoder, options.pool);
  if (!selection.ok()) return selection.status();
  const core::EntityEmbeddingStore store = core::EmbedSources(
      tables, *selection, assignment.sources, encoder, options.pool);
  const size_t dim = encoder->dim();

  core::MergePlan plan = core::MergePlan::Build(tables.size(), config.seed);
  std::vector<core::MergeSource> slots(plan.num_nodes());
  for (size_t s : assignment.sources) {
    slots[s] = core::MergeSource::FromTable(
        core::MergeTable::FromSource(store, static_cast<uint32_t>(s)));
  }

  core::TwoTableMerger merger(config, &store, *components.index_factory);
  core::MergeExecOptions exec;
  exec.targets = assignment.roots;
  exec.spill_dir = options.shard_dir;
  core::MergeStats stats;
  MULTIEM_RETURN_IF_ERROR(core::ExecuteMergePlan(
      plan, slots, merger, exec, options.pool, &stats));

  // The manifest goes last (and lands atomically): its presence certifies
  // that every merge output spilled above it is complete.
  util::ArtifactWriter manifest(kShardMagic, kShardVersion);
  util::ByteWriter& meta = manifest.AddSection("meta");
  meta.WriteU64(tables.size());
  meta.WriteU64(config.seed);
  meta.WriteU64(dim);
  std::vector<uint64_t> sources64 = ToU64(assignment.sources);
  std::vector<uint64_t> roots64 = ToU64(assignment.roots);
  std::vector<uint64_t> columns64 = ToU64(selection->selected_columns);
  meta.WriteU64Array(sources64);
  meta.WriteU64Array(roots64);
  meta.WriteU64Array(columns64);
  util::ByteWriter& stats_out = manifest.AddSection("stats");
  stats_out.WriteU64(stats.nodes.size());
  for (const core::MergeNodeStats& node : stats.nodes) {
    core::WriteNodeStats(stats_out, node);
  }
  for (size_t s : assignment.sources) {
    util::ByteWriter& base =
        manifest.AddSection("base_" + std::to_string(s));
    embed::WriteMatrix(base, store.source(s));
  }
  return manifest.WriteFile(options.shard_dir + "/" + ShardManifestName());
}

util::Result<ShardArtifact> OpenShardArtifact(
    const std::string& shard_dir, const util::ArtifactOpenOptions& options) {
  auto reader = util::ArtifactReader::FromFile(
      shard_dir + "/" + ShardManifestName(), kShardMagic, kShardVersion,
      options);
  if (!reader.ok()) return reader.status();

  ShardArtifact shard;
  auto meta = reader->Section("meta");
  if (!meta.ok()) return meta.status();
  MULTIEM_RETURN_IF_ERROR(meta->ReadU64(&shard.total_sources));
  MULTIEM_RETURN_IF_ERROR(meta->ReadU64(&shard.seed));
  MULTIEM_RETURN_IF_ERROR(meta->ReadU64(&shard.dim));
  MULTIEM_RETURN_IF_ERROR(meta->ReadU64Array(&shard.covered_sources));
  MULTIEM_RETURN_IF_ERROR(meta->ReadU64Array(&shard.roots));
  MULTIEM_RETURN_IF_ERROR(meta->ReadU64Array(&shard.selected_columns));

  auto stats = reader->Section("stats");
  if (!stats.ok()) return stats.status();
  uint64_t count = 0;
  MULTIEM_RETURN_IF_ERROR(stats->ReadU64(&count));
  // v1 rows have no attempts column.
  const bool has_attempts = reader->version() >= 2;
  if (count > stats->remaining() / ((has_attempts ? 5 : 4) * 8)) {
    return util::Status::InvalidArgument(
        "shard manifest claims " + std::to_string(count) + " stats rows in " +
        std::to_string(stats->remaining()) + " section bytes");
  }
  shard.node_stats.resize(static_cast<size_t>(count));
  for (core::MergeNodeStats& node : shard.node_stats) {
    MULTIEM_RETURN_IF_ERROR(core::ReadNodeStats(*stats, has_attempts, &node));
  }

  shard.bases.reserve(shard.covered_sources.size());
  for (uint64_t s : shard.covered_sources) {
    auto base = reader->Section("base_" + std::to_string(s));
    if (!base.ok()) return base.status();
    embed::EmbeddingMatrix m;
    MULTIEM_RETURN_IF_ERROR(embed::ReadMatrix(*base, &m));
    shard.bases.push_back(std::move(m));
  }
  return shard;
}

}  // namespace multiem::distrib
