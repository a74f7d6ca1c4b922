#include "distrib/coordinator.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <optional>
#include <thread>
#include <utility>

#include "core/merge_plan.h"
#include "core/merge_source.h"
#include "core/merge_table.h"
#include "core/pipeline.h"
#include "core/two_table_merger.h"
#include "distrib/shard_worker.h"
#include "util/fault.h"
#include "util/io.h"
#include "util/logging.h"
#include "util/retry.h"
#include "util/subprocess.h"
#include "util/timer.h"

namespace multiem::distrib {

namespace {

/// SIGKILL, spelled as a constant so this file still compiles under the
/// non-POSIX util::Subprocess fallback (where every call returns
/// Unimplemented long before a signal is sent).
constexpr int kSigKill = 9;

/// How shard manifests are opened. mmap-preferred: the base matrices then
/// serve zero-copy from the page cache across the coordinator and any other
/// process holding the same shard.
constexpr util::ArtifactOpenOptions kShardOpen = {
    .mapping = util::ArtifactOpenOptions::Mapping::kPrefer,
    .verify = util::ArtifactOpenOptions::Verify::kFull};

std::string DescribeExit(const util::ExitStatus& ws) {
  if (ws.signaled) {
    return "killed by signal " + std::to_string(ws.term_signal);
  }
  return "exited with code " + std::to_string(ws.exit_code);
}

/// Forks one worker. The child builds its shard, frames its final Status
/// back over the pipe, and exits 0/1; with `hang` it sleeps forever
/// instead (fault injection — the parent's timeout must reap it).
util::Result<util::Subprocess> LaunchWorker(
    const core::MultiEmConfig& worker_config,
    const std::vector<table::Table>& tables,
    const ShardAssignment& assignment, const std::string& shard_dir,
    bool hang) {
  return util::Subprocess::Fork([&worker_config, &tables, &assignment,
                                 &shard_dir, hang](int fd) -> int {
    if (hang) {
      for (;;) std::this_thread::sleep_for(std::chrono::hours(1));
    }
    std::unique_ptr<util::ThreadPool> pool;
    if (worker_config.num_threads != 1) {
      pool = std::make_unique<util::ThreadPool>(worker_config.num_threads);
    }
    ShardWorkerOptions opts;
    opts.shard_dir = shard_dir;
    opts.pool = pool.get();
    util::Status built =
        RunShardWorker(worker_config, tables, assignment, opts);
    std::string message = built.ToString();
    // Best-effort: the exit code already carries success/failure; the
    // message just adds detail for the coordinator's error report.
    (void)util::Subprocess::WriteMessage(fd, message.data(), message.size());
    return built.ok() ? 0 : 1;
  });
}

std::vector<uint64_t> ToU64(const std::vector<size_t>& v) {
  return std::vector<uint64_t>(v.begin(), v.end());
}

}  // namespace

util::Result<DistributedBuildResult> Coordinator::Build(
    const std::vector<table::Table>& tables) const {
  util::WallTimer total_timer;
  MULTIEM_RETURN_IF_ERROR(config_.ValidateValues());
  MULTIEM_RETURN_IF_ERROR(core::ValidateTables(tables));
  if (options_.num_workers == 0) {
    return util::Status::InvalidArgument("num_workers must be >= 1");
  }
  if (options_.work_dir.empty()) {
    return util::Status::InvalidArgument("work_dir must be set");
  }
  // Resolved as MultiEmPipeline::Run resolves them, and before anything
  // touches the work dir: a config any build path rejects fails here, with
  // no worker forked and no shard directory created.
  core::PipelineComponents components;
  MULTIEM_RETURN_IF_ERROR(core::ResolveComponents(config_, &components));

  core::MergePlan plan = core::MergePlan::Build(tables.size(), config_.seed);
  std::vector<ShardAssignment> assignments =
      PartitionPlan(plan, options_.num_workers);
  const size_t workers = assignments.size();

  DistributedBuildResult result;
  result.distrib.workers = workers;
  for (const ShardAssignment& a : assignments) {
    result.distrib.frontier_nodes += a.roots.size();
  }

  std::error_code ec;
  std::filesystem::create_directories(options_.work_dir, ec);
  if (ec) {
    return util::Status::Internal("cannot create work directory '" +
                                  options_.work_dir + "': " + ec.message());
  }
  std::vector<std::string> shard_dirs;
  std::vector<bool> reuse_candidate(workers, false);
  for (size_t w = 0; w < workers; ++w) {
    shard_dirs.push_back(options_.work_dir + "/" + ShardDirName(w));
    if (options_.reuse_shards &&
        std::filesystem::exists(shard_dirs.back() + "/" +
                                ShardManifestName())) {
      // The manifest is written last, so its presence certifies a complete
      // shard from an earlier run. Adopt it tentatively; it is validated
      // against this run's plan + selection below before anything trusts it.
      reuse_candidate[w] = true;
    } else {
      // A stale partial shard from an earlier run would otherwise pass the
      // completion check below with the wrong contents.
      std::filesystem::remove_all(shard_dirs.back(), ec);
    }
  }

  core::MultiEmConfig worker_config = config_;
  worker_config.num_threads = options_.worker_threads;

  // 1. Fork every worker before any ThreadPool exists in this process
  // (util/subprocess.h: a child forked from a multithreaded parent can
  // inherit locked allocator state). Reuse candidates do not fork at all —
  // their shard is already on disk.
  util::WallTimer worker_timer;
  std::vector<std::optional<util::Subprocess>> procs(workers);
  std::vector<size_t> attempts(workers, 1);
  for (size_t w = 0; w < workers; ++w) {
    if (reuse_candidate[w]) continue;
    auto proc = LaunchWorker(worker_config, tables, assignments[w],
                             shard_dirs[w], options_.hang_worker == w);
    if (!proc.ok()) return proc.status();
    procs[w] = std::move(*proc);
  }
  if (options_.kill_worker < workers &&
      procs[options_.kill_worker].has_value()) {
    (void)procs[options_.kill_worker]->Kill(kSigKill);
  }

  // 2. Overlap the workers with the coordinator's own deterministic
  // replay of phases S and R (no pool yet — see above). R only refits the
  // encoder here: the embeddings come from the shards.
  embed::TextEncoder* encoder = components.encoder.get();
  auto selection =
      core::SelectAttributes(config_, tables, encoder, /*pool=*/nullptr);
  if (!selection.ok()) return selection.status();
  result.run.selection = std::move(*selection);
  (void)core::EmbedSources(tables, result.run.selection, /*sources=*/{},
                           encoder, /*pool=*/nullptr);

  // A shard is only adopted/accepted when the worker reached the exact
  // deterministic decisions this process just replayed, embedded every row
  // of its sources, and every merge output its manifest promises is
  // actually present.
  auto check_shard = [&](size_t w, const ShardArtifact& shard) -> util::Status {
    if (shard.total_sources != tables.size() || shard.seed != config_.seed ||
        shard.dim != encoder->dim() ||
        shard.covered_sources != ToU64(assignments[w].sources) ||
        shard.roots != ToU64(assignments[w].roots)) {
      return util::Status::Internal(
          "shard " + std::to_string(w) +
          " does not match its assignment (stale or foreign artifact?)");
    }
    if (shard.selected_columns !=
        ToU64(result.run.selection.selected_columns)) {
      return util::Status::Internal(
          "worker " + std::to_string(w) +
          " disagrees with the coordinator on attribute selection — the "
          "fit is expected to be deterministic across processes");
    }
    for (size_t i = 0; i < shard.covered_sources.size(); ++i) {
      const size_t s = static_cast<size_t>(shard.covered_sources[i]);
      if (shard.bases[i].num_rows() != tables[s].num_rows()) {
        return util::Status::Internal(
            "shard " + std::to_string(w) + " holds " +
            std::to_string(shard.bases[i].num_rows()) +
            " embeddings for source " + std::to_string(s) + ", expected " +
            std::to_string(tables[s].num_rows()));
      }
    }
    for (const core::MergeNodeStats& node : shard.node_stats) {
      if (node.node >= plan.num_nodes() || plan.node(node.node).is_leaf()) {
        return util::Status::Internal(
            "shard " + std::to_string(w) + " reports counters for node " +
            std::to_string(node.node) + ", which the plan does not merge");
      }
    }
    for (size_t root : assignments[w].roots) {
      if (!plan.node(root).is_leaf() &&
          !std::filesystem::exists(shard_dirs[w] + "/" +
                                   core::SpillFileName(root))) {
        return util::Status::Internal(
            "shard " + std::to_string(w) + " is missing merge output '" +
            core::SpillFileName(root) + "'");
      }
    }
    return util::Status::Ok();
  };

  // A reused shard's merge outputs come from an earlier run, so each is
  // loaded (MEMMERGT v1 or v2) over the shard's own bases: a member outside
  // the shard's sources or past a base's rows makes the shard unusable
  // here, where it is rebuilt, instead of failing the merge that reads it.
  auto check_merge_outputs = [&](size_t w,
                                 const ShardArtifact& shard) -> util::Status {
    core::EntityEmbeddingStore bases;  // the shard's sources; others empty
    for (size_t s = 0; s < tables.size(); ++s) {
      const auto covered = std::find(shard.covered_sources.begin(),
                                     shard.covered_sources.end(), s);
      bases.AddSource(covered == shard.covered_sources.end()
                          ? embed::EmbeddingMatrix(0, shard.dim)
                          : shard.bases[static_cast<size_t>(
                                covered - shard.covered_sources.begin())]);
    }
    for (size_t root : assignments[w].roots) {
      if (plan.node(root).is_leaf()) continue;
      auto table = core::MergeTable::Load(
          shard_dirs[w] + "/" + core::SpillFileName(root), bases, kShardOpen);
      if (!table.ok()) return table.status();
    }
    return util::Status::Ok();
  };

  // Validate the reuse candidates now that the fit is known. Still pre-pool
  // (every open joins its checksum thread before returning): an invalid
  // candidate is deleted and forked like any other worker, and forking must
  // stay single-threaded.
  std::vector<ShardArtifact> shards(workers);
  std::vector<bool> have_shard(workers, false);
  for (size_t w = 0; w < workers; ++w) {
    if (!reuse_candidate[w]) continue;
    util::Status usable;
    auto shard = OpenShardArtifact(shard_dirs[w], kShardOpen);
    if (shard.ok()) {
      usable = check_shard(w, *shard);
      if (usable.ok()) usable = check_merge_outputs(w, *shard);
    } else {
      usable = shard.status();
    }
    if (usable.ok()) {
      shards[w] = std::move(*shard);
      have_shard[w] = true;
      ++result.distrib.shards_reused;
      MULTIEM_LOG(kInfo) << "reusing completed shard " << w << " from '"
                         << shard_dirs[w] << "'";
      continue;
    }
    MULTIEM_LOG(kWarning) << "cannot reuse shard " << w << ", rebuilding: "
                          << usable.ToString();
    reuse_candidate[w] = false;
    std::filesystem::remove_all(shard_dirs[w], ec);
    auto proc = LaunchWorker(worker_config, tables, assignments[w],
                             shard_dirs[w], /*hang=*/false);
    if (!proc.ok()) return proc.status();
    procs[w] = std::move(*proc);
  }

  // 3. Reap each forked worker; retry crashed/hung/incomplete ones under
  // the policy's deterministic backoff. Any terminal failure returns
  // through here, and the Subprocess destructors SIGKILL and reap whatever
  // is still running — no zombies, no hangs.
  MULTIEM_FAULT_POINT("coordinator.reap");
  for (size_t w = 0; w < workers; ++w) {
    if (!procs[w].has_value()) continue;  // reused shard, nothing to reap
    util::RetryPolicy policy = options_.worker_retry;
    policy.jitter_seed ^= static_cast<uint64_t>(w);
    util::Status last_failure;
    size_t made = 1;
    util::Status reaped = util::RetryWithBackoff(
        policy,
        [&](size_t attempt) -> util::Status {
          if (attempt > 1) {
            MULTIEM_LOG(kWarning)
                << "retrying worker " << w << " (attempt " << attempt
                << "): " << last_failure.ToString();
            ++result.distrib.retries;
            std::filesystem::remove_all(shard_dirs[w], ec);
            // Fault injection applies to first attempts only: the retry is
            // the recovery path under test.
            auto proc = LaunchWorker(worker_config, tables, assignments[w],
                                     shard_dirs[w], /*hang=*/false);
            if (!proc.ok()) return last_failure = proc.status();
            procs[w] = std::move(*proc);
          }
          auto ws = procs[w]->Wait(options_.worker_timeout_ms);
          if (!ws.ok()) {
            if (ws.status().code() != util::StatusCode::kResourceExhausted) {
              return last_failure = ws.status();
            }
            (void)procs[w]->Kill(kSigKill);
            (void)procs[w]->Wait(/*timeout_ms=*/-1);
            return last_failure = util::Status::ResourceExhausted(
                       "worker " + std::to_string(w) + " exceeded its " +
                       std::to_string(options_.worker_timeout_ms) +
                       " ms deadline");
          }
          if (!ws->ok()) {
            std::string detail;
            auto message = procs[w]->ReadMessage(/*timeout_ms=*/200);
            if (message.ok()) {
              detail = ": " + std::string(message->begin(), message->end());
            }
            return last_failure =
                       util::Status::Internal("worker " + std::to_string(w) +
                                              " " + DescribeExit(*ws) + detail);
          }
          if (!std::filesystem::exists(shard_dirs[w] + "/" +
                                       ShardManifestName())) {
            return last_failure = util::Status::Internal(
                       "worker " + std::to_string(w) +
                       " exited cleanly but left no shard manifest");
          }
          return util::Status::Ok();
        },
        /*cancelled=*/nullptr, &made);
    attempts[w] = made;
    if (!reaped.ok()) {
      return util::Status(reaped.code(), "distributed build failed after " +
                                             std::to_string(made) +
                                             " attempt(s): " +
                                             reaped.message());
    }
  }
  result.distrib.worker_seconds = worker_timer.ElapsedSeconds();

  // Every worker finished (or was reused); a crash injected here must find
  // all shards adoptable on the next Build() over the same work dir.
  MULTIEM_FAULT_POINT("coordinator.assemble");

  // Parallelism is safe from here on: every fork already happened.
  std::unique_ptr<util::ThreadPool> pool;
  if (config_.num_threads != 1) {
    pool = std::make_unique<util::ThreadPool>(config_.num_threads);
  }
  util::ArtifactOpenOptions open = kShardOpen;
  open.verify_pool = pool.get();

  // 4. Open the freshly built shards and cross-check that every worker
  // reached the same deterministic decisions this process did (reused
  // shards already passed the identical checks above).
  for (size_t w = 0; w < workers; ++w) {
    if (have_shard[w]) continue;
    auto shard = OpenShardArtifact(shard_dirs[w], open);
    if (!shard.ok()) {
      return util::Status::Internal("cannot open shard " + std::to_string(w) +
                                    ": " + shard.status().ToString());
    }
    MULTIEM_RETURN_IF_ERROR(check_shard(w, *shard));
    shards[w] = std::move(*shard);
    have_shard[w] = true;
  }

  // Assemble the global embedding store from the shard base matrices
  // (zero-copy views into the mapped manifests when mapping succeeded).
  core::EntityEmbeddingStore store;
  {
    constexpr size_t kUnset = static_cast<size_t>(-1);
    std::vector<std::pair<size_t, size_t>> where(tables.size(),
                                                 {kUnset, kUnset});
    for (size_t w = 0; w < workers; ++w) {
      for (size_t i = 0; i < shards[w].covered_sources.size(); ++i) {
        size_t s = static_cast<size_t>(shards[w].covered_sources[i]);
        if (s >= tables.size() || where[s].first != kUnset) {
          return util::Status::Internal(
              "source " + std::to_string(s) +
              " is covered by more than one shard");
        }
        where[s] = {w, i};
      }
    }
    for (size_t s = 0; s < tables.size(); ++s) {
      auto [w, i] = where[s];
      if (w == kUnset) {
        return util::Status::Internal("source " + std::to_string(s) +
                                      " is covered by no shard");
      }
      store.AddSource(std::move(shards[w].bases[i]));
    }
  }

  // 5. Seed the plan slots — resident handles for frontier leaves, spill
  // handles (not file-owning; the shard dir outlives the build) for worker
  // merge roots — and execute the remaining top of the plan.
  util::WallTimer merge_timer;
  std::vector<core::MergeSource> slots(plan.num_nodes());
  for (size_t w = 0; w < workers; ++w) {
    for (size_t root : assignments[w].roots) {
      if (plan.node(root).is_leaf()) {
        slots[root] = core::MergeSource::FromTable(core::MergeTable::FromSource(
            store, static_cast<uint32_t>(root)));
      } else {
        slots[root] = core::MergeSource::FromSpill(
            shard_dirs[w] + "/" + core::SpillFileName(root),
            kShardOpen, /*owns_file=*/false);
      }
    }
  }
  // Seed the stats with the workers' per-node counters, so the executor
  // folds them with its own into the per-level shape of the whole plan —
  // identical to the single-process run's.
  for (size_t w = 0; w < workers; ++w) {
    for (core::MergeNodeStats node : shards[w].node_stats) {
      // Surface what the worker's subtree actually cost: the fork-retry
      // count of the worker that produced it (1 for a reused shard — this
      // run spent nothing on it).
      node.attempts = std::max(node.attempts, attempts[w]);
      result.run.merge_stats.nodes.push_back(node);
    }
  }
  core::TwoTableMerger merger(config_, &store, *components.index_factory);
  MULTIEM_RETURN_IF_ERROR(core::ExecuteMergePlan(
      plan, slots, merger, {}, pool.get(), &result.run.merge_stats));
  auto integrated = slots[plan.root()].Acquire(store);
  if (!integrated.ok()) return integrated.status();
  result.distrib.merge_seconds = merge_timer.ElapsedSeconds();

  // 6. Prune and (optionally) assemble the serving session, exactly as the
  // single-process pipeline does.
  core::PruneContext prune_ctx;
  prune_ctx.store = &store;
  prune_ctx.pool = pool.get();
  result.run.tuples = components.pruner->Prune(*integrated, prune_ctx,
                                               &result.run.prune_stats);

  if (options_.build_matcher) {
    auto matcher = core::BuildMatcher(
        config_, tables, result.run.selection, std::move(store),
        std::move(*integrated), components, pool.get());
    if (!matcher.ok()) return matcher.status();
    result.run.matcher = std::move(*matcher);
  }

  result.distrib.total_seconds = total_timer.ElapsedSeconds();
  MULTIEM_LOG(kDebug) << "distributed build finished: " << workers
                      << " workers, " << result.run.tuples.size()
                      << " tuples, " << result.distrib.retries << " retries, "
                      << result.distrib.shards_reused << " shards reused";
  return result;
}

}  // namespace multiem::distrib
