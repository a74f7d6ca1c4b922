#include "core/merge_plan.h"

#include <algorithm>
#include <filesystem>
#include <mutex>
#include <numeric>
#include <system_error>
#include <utility>

#include "core/checkpoint.h"
#include "util/fault.h"
#include "util/journal.h"
#include "util/logging.h"
#include "util/rng.h"

namespace multiem::core {

MergePlan MergePlan::Build(size_t num_tables, uint64_t seed) {
  MergePlan plan;
  plan.num_leaves_ = num_tables;
  plan.nodes_.resize(num_tables);  // leaves: ids [0, num_tables)
  if (num_tables == 0) return plan;

  // One shuffle of the live-table list per level, consecutive pairs, odd
  // table carried last. Changing anything here changes every integrated
  // table ever built.
  util::Rng rng(seed ^ 0x4D455247ULL);  // "MERG"
  std::vector<size_t> live(num_tables);
  std::iota(live.begin(), live.end(), size_t{0});

  size_t level_index = 0;
  while (live.size() > 1) {
    std::vector<size_t> order(live.size());
    std::iota(order.begin(), order.end(), size_t{0});
    rng.Shuffle(order);

    const size_t num_pairs = live.size() / 2;
    MergePlanLevel level;
    level.tables_in = live.size();
    std::vector<size_t> next;
    next.reserve(num_pairs + live.size() % 2);
    for (size_t p = 0; p < num_pairs; ++p) {
      MergePlanNode node;
      node.left = live[order[2 * p]];
      node.right = live[order[2 * p + 1]];
      node.level = level_index;
      const size_t id = plan.nodes_.size();
      plan.nodes_.push_back(node);
      level.pair_nodes.push_back(id);
      next.push_back(id);
    }
    if (live.size() % 2 == 1) {
      level.carried = live[order[live.size() - 1]];
      next.push_back(level.carried);
    }
    plan.levels_.push_back(std::move(level));
    live = std::move(next);
    ++level_index;
  }
  plan.root_ = live[0];
  return plan;
}

std::vector<size_t> MergePlan::LiveNodesAtLevel(size_t level) const {
  if (level == 0 || levels_.empty()) {
    std::vector<size_t> leaves(num_leaves_);
    std::iota(leaves.begin(), leaves.end(), size_t{0});
    return leaves;
  }
  const MergePlanLevel& prev = levels_[std::min(level, levels_.size()) - 1];
  std::vector<size_t> live = prev.pair_nodes;
  if (prev.carried != MergePlanNode::kNone) live.push_back(prev.carried);
  return live;
}

std::vector<size_t> MergePlan::SubtreeLeaves(size_t id) const {
  std::vector<size_t> leaves;
  std::vector<size_t> stack = {id};
  while (!stack.empty()) {
    const size_t n = stack.back();
    stack.pop_back();
    const MergePlanNode& node = nodes_[n];
    if (node.is_leaf()) {
      leaves.push_back(n);
    } else {
      stack.push_back(node.left);
      stack.push_back(node.right);
    }
  }
  std::sort(leaves.begin(), leaves.end());
  return leaves;
}

std::string SpillFileName(size_t node) {
  return "merge_" + std::to_string(node) + ".mem";
}

MergeExecOptions MergeExecOptions::Spilled(std::string spill_dir,
                                           CheckpointLog* checkpoint) {
  MergeExecOptions options;
  options.spill_dir = std::move(spill_dir);
  options.spill_inputs = true;
  options.checkpoint = checkpoint;
  return options;
}

namespace {

size_t FileBytes(const std::string& path) {
  std::error_code ec;
  auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<size_t>(size);
}

// Shared mutable state of one executor run. `mu` guards everything when
// pairs run in parallel (resident mode only).
struct ExecState {
  std::mutex mu;
  MergeStats* stats = nullptr;
};

std::string SpillPath(const MergeExecOptions& options, size_t node) {
  return (std::filesystem::path(options.spill_dir) / SpillFileName(node))
      .string();
}

// Moves node `id`'s resident input to disk and swaps in an owning spill
// handle; the table is released as soon as it is written, so spilling a
// fully materialized corpus never holds two copies of it.
util::Status SpillInput(std::vector<MergeSource>& slots, size_t id,
                        const EntityEmbeddingStore& store,
                        const MergeExecOptions& options, ExecState& state) {
  const std::string path = SpillPath(options, id);
  {
    auto table = slots[id].Acquire(store);
    if (!table.ok()) return table.status();
    MULTIEM_RETURN_IF_ERROR(table->Save(path));
  }
  ++state.stats->spill_files_written;
  state.stats->spill_bytes_written += FileBytes(path);
  slots[id] = MergeSource::FromSpill(path, {}, /*owns_file=*/true);
  return util::Status::Ok();
}

// Executes one pair node: acquires both child handles, merges, and installs
// the output handle in slots[id]. Consumed inputs' owned backing files are
// removed only after the output is durable (spilled) or resident.
util::Status ExecuteNode(const MergePlan& plan, size_t id,
                         std::vector<MergeSource>& slots,
                         const TwoTableMerger& merger,
                         const MergeExecOptions& options,
                         util::ThreadPool* pool, ExecState& state) {
  const MergePlanNode& node = plan.node(id);
  MergeSource& left = slots[node.left];
  MergeSource& right = slots[node.right];
  if (left.empty() || right.empty()) {
    return util::Status::Internal("merge plan node " + std::to_string(id) +
                                  " scheduled before its inputs");
  }

  const EntityEmbeddingStore& store = merger.store();
  MergeNodeStats node_stats;
  node_stats.node = id;
  MergeTable merged;
  size_t resident_bytes = 0;
  {
    auto a = left.Acquire(store);
    if (!a.ok()) return a.status();
    auto b = right.Acquire(store);
    if (!b.ok()) return b.status();
    merged = merger.Merge(*a, *b, pool, &node_stats);
    // The pair's member lists, its output's, and the two item-vector
    // matrices Merge gathered from the store.
    resident_bytes = a->SizeBytes() + b->SizeBytes() + merged.SizeBytes() +
                     (a->num_items() + b->num_items()) * store.dim() *
                         sizeof(float);
  }  // both inputs leave residency before the output is spilled

  size_t spill_bytes = 0;
  if (!options.spill_dir.empty()) {
    const std::string out = SpillPath(options, id);
    MULTIEM_FAULT_POINT("merge.node.spill");
    MULTIEM_RETURN_IF_ERROR(merged.Save(out));
    spill_bytes = FileBytes(out);
    merged = MergeTable();  // release before anything else loads
    slots[id] = MergeSource::FromSpill(out, {}, /*owns_file=*/true);
    if (options.checkpoint != nullptr) {
      // Journal the node only once its output is durable; a crash between
      // Save and Append recomputes the node from its (still present)
      // inputs, overwriting the same per-node file.
      CheckpointLog::NodeEntry entry;
      entry.stats = node_stats;
      entry.spill_path = out;
      entry.file_bytes = spill_bytes;
      auto checksum = options.checkpoint->HashSpill(out);
      if (!checksum.ok()) return checksum.status();
      entry.file_checksum = *checksum;
      MULTIEM_FAULT_POINT("merge.node.commit");
      MULTIEM_RETURN_IF_ERROR(options.checkpoint->RecordNode(entry));
    }
  } else {
    slots[id] = MergeSource::FromTable(std::move(merged));
  }

  // Output durable — now the consumed inputs' files can go.
  left.RemoveBackingFile();
  right.RemoveBackingFile();

  std::lock_guard<std::mutex> lock(state.mu);
  state.stats->nodes.push_back(node_stats);
  state.stats->peak_resident_bytes =
      std::max(state.stats->peak_resident_bytes, resident_bytes);
  if (!options.spill_dir.empty()) {
    ++state.stats->spill_files_written;
    state.stats->spill_bytes_written += spill_bytes;
  }
  return util::Status::Ok();
}

// Executes the given pair nodes of one plan level — concurrently on the
// pool when outputs stay resident, otherwise in pair order (spilling keeps
// one pair resident at a time). Each pair's inner index builds and ANN
// searches fan out on the same pool either way (TwoTableMerger::Merge).
util::Status ExecuteLevel(const MergePlan& plan,
                          const std::vector<size_t>& ids,
                          std::vector<MergeSource>& slots,
                          const TwoTableMerger& merger,
                          const MergeExecOptions& options,
                          util::ThreadPool* pool, ExecState& state) {
  const bool parallel =
      options.spill_dir.empty() && pool != nullptr && ids.size() > 1;
  if (!parallel) {
    for (size_t id : ids) {
      MULTIEM_RETURN_IF_ERROR(
          ExecuteNode(plan, id, slots, merger, options, pool, state));
    }
    return util::Status::Ok();
  }
  util::Status level_status = util::Status::Ok();
  std::mutex error_mu;
  util::TaskGroup level_group(*pool);
  for (size_t id : ids) {
    pool->Submit(level_group, [&, id] {
      util::Status s =
          ExecuteNode(plan, id, slots, merger, options, pool, state);
      if (!s.ok()) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (level_status.ok()) level_status = std::move(s);
      }
    });
  }
  level_group.Wait();
  return level_status;
}

/// Drops everything beneath a restored node: handles still occupying slots
/// (resident leaves, previously restored descendants) are released, and
/// every covered node's spill file — a leaf or merge output an earlier
/// attempt wrote — is removed by name. Their bytes are already folded into
/// the restored ancestor's table.
void DiscardCoveredSubtree(const MergePlan& plan, size_t id,
                           std::vector<MergeSource>& slots,
                           const MergeExecOptions& options, ExecState& state) {
  std::vector<size_t> stack = {id};
  while (!stack.empty()) {
    const size_t n = stack.back();
    stack.pop_back();
    slots[n].RemoveBackingFile();
    slots[n] = MergeSource();
    std::error_code ec;
    std::filesystem::remove(SpillPath(options, n), ec);
    const MergePlanNode& node = plan.node(n);
    if (!node.is_leaf()) {
      // The covered pair's counters still happened (in the attempt that
      // journaled them) — inject them so resumed level stats match an
      // uninterrupted run's.
      if (const CheckpointLog::NodeEntry* entry =
              options.checkpoint->LookupNode(n)) {
        state.stats->nodes.push_back(entry->stats);
      }
      stack.push_back(node.left);
      stack.push_back(node.right);
    }
  }
}

/// Resume pre-pass: walking top-down from `target`, installs every journaled
/// node whose spill artifact still validates (size + checksum) and skips its
/// whole subtree; an invalid or missing entry recurses into the children so
/// the deepest surviving progress is still reused. Restored nodes inject
/// their journaled counters so level stats match an uninterrupted run.
void RestoreJournaledSubtree(const MergePlan& plan, size_t target,
                             std::vector<MergeSource>& slots,
                             const MergeExecOptions& options,
                             ExecState& state) {
  const MergePlanNode& node = plan.node(target);
  if (node.is_leaf() || !slots[target].empty()) return;
  if (const CheckpointLog::NodeEntry* entry =
          options.checkpoint->LookupNode(target)) {
    if (CheckpointLog::ValidateSpill(*entry)) {
      slots[target] =
          MergeSource::FromSpill(entry->spill_path, {}, /*owns_file=*/true);
      state.stats->nodes.push_back(entry->stats);
      DiscardCoveredSubtree(plan, node.left, slots, options, state);
      DiscardCoveredSubtree(plan, node.right, slots, options, state);
      return;
    }
    MULTIEM_LOG(kWarning) << "checkpointed merge node " << target
                          << ": spill '" << entry->spill_path
                          << "' is missing or corrupt; recomputing";
  }
  RestoreJournaledSubtree(plan, node.left, slots, options, state);
  RestoreJournaledSubtree(plan, node.right, slots, options, state);
}

util::Status ValidateOptions(const MergePlan& plan,
                             const std::vector<size_t>& targets,
                             const MergeExecOptions& options) {
  for (size_t t : targets) {
    if (t >= plan.num_nodes()) {
      return util::Status::InvalidArgument(
          "merge target " + std::to_string(t) + " is not a node of the " +
          std::to_string(plan.num_nodes()) + "-node plan");
    }
  }
  if ((options.spill_inputs || options.checkpoint != nullptr) &&
      options.spill_dir.empty()) {
    return util::Status::InvalidArgument(
        "spilled and checkpointed merge execution require a spill_dir");
  }
  return util::Status::Ok();
}

util::Status PrepareSpillDir(const MergeExecOptions& options) {
  if (options.spill_dir.empty()) return util::Status::Ok();
  std::error_code ec;
  std::filesystem::create_directories(options.spill_dir, ec);
  if (ec) {
    return util::Status::Internal("cannot create spill directory '" +
                                  options.spill_dir + "': " + ec.message());
  }
  // A crashed earlier attempt can leave half-written `<name>.mem.tmp` files
  // behind; they are never referenced (the journal only records renamed
  // files), so reclaim the space up front.
  util::SweepOrphanTmpFiles(options.spill_dir);
  return util::Status::Ok();
}

// Refolds the per-level counters from every node the stats hold. Ids out of
// the plan's range (a foreign worker's counters) are ignored.
void FoldLevels(const MergePlan& plan, MergeStats& stats) {
  stats.levels.assign(plan.levels().size(), MergeLevelProgress{});
  for (size_t l = 0; l < stats.levels.size(); ++l) {
    stats.levels[l].level = l;
    stats.levels[l].tables_in = plan.levels()[l].tables_in;
    stats.levels[l].tables_out = plan.LiveNodesAtLevel(l + 1).size();
  }
  stats.total_mutual_pairs = 0;
  for (const MergeNodeStats& n : stats.nodes) {
    if (n.node >= plan.num_nodes() || plan.node(n.node).is_leaf()) continue;
    MergeLevelProgress& level = stats.levels[plan.node(n.node).level];
    ++level.pairs_merged;
    level.mutual_pairs += n.mutual_pairs;
    level.total_attempts += n.attempts;
    stats.total_mutual_pairs += n.mutual_pairs;
  }
}

}  // namespace

util::Status ExecuteMergePlan(const MergePlan& plan,
                              std::vector<MergeSource>& slots,
                              const TwoTableMerger& merger,
                              const MergeExecOptions& options,
                              util::ThreadPool* pool, MergeStats* stats,
                              const RunContext& ctx) {
  if (plan.num_leaves() == 0) return util::Status::Ok();
  if (slots.size() < plan.num_leaves() || slots.size() > plan.num_nodes()) {
    return util::Status::InvalidArgument(
        "merge plan over " + std::to_string(plan.num_leaves()) +
        " tables needs between " + std::to_string(plan.num_leaves()) +
        " and " + std::to_string(plan.num_nodes()) + " slots, got " +
        std::to_string(slots.size()));
  }
  const std::vector<size_t> targets =
      options.targets.empty() ? std::vector<size_t>{plan.root()}
                              : options.targets;
  MULTIEM_RETURN_IF_ERROR(ValidateOptions(plan, targets, options));
  MULTIEM_RETURN_IF_ERROR(PrepareSpillDir(options));
  // Preallocated so parallel pairs write disjoint elements without
  // reallocation.
  slots.resize(plan.num_nodes());

  // Counters are always collected (the observer needs per-level mutual-pair
  // sums even when the caller passed no stats sink).
  MergeStats local_stats;
  ExecState state;
  state.stats = stats != nullptr ? stats : &local_stats;

  if (options.checkpoint != nullptr) {
    for (size_t t : targets) {
      RestoreJournaledSubtree(plan, t, slots, options, state);
    }
  }

  // Walk down from the targets to the nodes still missing, stopping at
  // filled slots — the inputs this run consumes.
  std::vector<bool> missing(plan.num_nodes(), false);
  std::vector<size_t> inputs;
  std::vector<size_t> stack;
  for (size_t t : targets) {
    if (slots[t].empty()) stack.push_back(t);
  }
  while (!stack.empty()) {
    const size_t id = stack.back();
    stack.pop_back();
    if (missing[id]) continue;
    const MergePlanNode& node = plan.node(id);
    if (node.is_leaf()) {
      return util::Status::FailedPrecondition(
          "merge plan leaf " + std::to_string(id) + " has no source");
    }
    missing[id] = true;
    for (size_t child : {node.left, node.right}) {
      if (slots[child].empty()) {
        stack.push_back(child);
      } else {
        inputs.push_back(child);
      }
    }
  }
  if (options.spill_inputs) {
    std::sort(inputs.begin(), inputs.end());
    for (size_t id : inputs) {
      if (!slots[id].resident()) continue;
      MULTIEM_RETURN_IF_ERROR(
          SpillInput(slots, id, merger.store(), options, state));
    }
  }

  // Node ids are topological and grouped by level, so running the missing
  // nodes level by level, in pair order, is a deterministic schedule.
  size_t num_levels = 0;
  for (size_t t : targets) {
    if (!plan.node(t).is_leaf()) {
      num_levels = std::max(num_levels, plan.node(t).level + 1);
    }
  }
  for (size_t l = 0; l < num_levels; ++l) {
    if (ctx.cancelled()) {
      FoldLevels(plan, *state.stats);
      state.stats->levels.resize(l);  // only the levels that finished
      return util::Status::Cancelled("merge cancelled before level " +
                                     std::to_string(l));
    }
    const MergePlanLevel& level = plan.levels()[l];
    std::vector<size_t> ids;
    for (size_t id : level.pair_nodes) {
      if (missing[id]) ids.push_back(id);
    }
    MULTIEM_RETURN_IF_ERROR(
        ExecuteLevel(plan, ids, slots, merger, options, pool, state));

    if (ctx.observer != nullptr) {
      FoldLevels(plan, *state.stats);
      ctx.observer->OnMergeLevel(state.stats->levels[l]);
    }
  }
  FoldLevels(plan, *state.stats);
  return util::Status::Ok();
}

}  // namespace multiem::core
