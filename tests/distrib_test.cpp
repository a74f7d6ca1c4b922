// Multi-process build tests: an N-process coordinator build must be
// bitwise-identical to the single-process pipeline (tuples, selection, merge
// and prune stats, saved artifact bytes) and reject the configs it rejects;
// MergeSource handles must be interchangeable (resident == spill == mapped
// spill); and fault injection (SIGKILL, hang) must degrade to a clean Status
// or recover through a retry, never a zombie or a hang.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/artifact.h"
#include "core/merge_plan.h"
#include "core/merge_source.h"
#include "core/pipeline.h"
#include "core/two_table_merger.h"
#include "datagen/scale.h"
#include "distrib/coordinator.h"
#include "distrib/shard_worker.h"
#include "embed/matrix_io.h"
#include "util/fault.h"
#include "util/subprocess.h"

namespace multiem {
namespace {

using core::MergePlan;
using core::MergeSource;
using core::MergeTable;
using core::MultiEmConfig;
using core::MultiEmPipeline;
using core::PipelineBuilder;
using core::PipelineResult;
using core::RunContext;
using distrib::Coordinator;
using distrib::CoordinatorOptions;
using distrib::PartitionPlan;
using distrib::ShardAssignment;
using distrib::ShardWorkerOptions;

std::string TempPath(const std::string& name) {
  std::string path = ::testing::TempDir() + "multiem_distrib_" + name;
  std::filesystem::remove_all(path);
  return path;
}

MultiEmConfig PipelineConfig() {
  MultiEmConfig config;
  config.sample_ratio = 0.25;
  config.m = 0.5f;
  config.index_name = "brute_force";  // deterministic across processes/threads
  config.seed = 5;
  return config;
}

std::vector<table::Table> CorpusTables(size_t sources, size_t rows) {
  datagen::ScaleCorpusConfig config;
  config.seed = 17;
  config.num_sources = sources;
  config.rows_per_source = rows;
  config.overlap = 0.4;
  datagen::ScaleCorpusGenerator gen(config);
  std::vector<table::Table> tables;
  for (size_t s = 0; s < gen.num_sources(); ++s) {
    tables.push_back(gen.MaterializeSource(s));
  }
  return tables;
}

PipelineResult RunSingleProcess(const std::vector<table::Table>& tables,
                                bool build_matcher = false) {
  auto pipeline = PipelineBuilder(PipelineConfig()).Build();
  pipeline.status().CheckOk();
  RunContext ctx;
  ctx.build_matcher = build_matcher;
  PipelineResult result;
  pipeline->Run(tables, ctx, &result).CheckOk();
  return result;
}

// Same member lists, and the same bytes in every vector derived from
// `store`.
void ExpectTablesBitwise(const MergeTable& a, const MergeTable& b,
                         const core::EntityEmbeddingStore& store) {
  ASSERT_EQ(a.num_items(), b.num_items());
  for (size_t i = 0; i < a.num_items(); ++i) {
    EXPECT_EQ(a.members(i), b.members(i)) << "item " << i;
  }
  const embed::EmbeddingMatrix va = a.GatherVectors(store);
  const embed::EmbeddingMatrix vb = b.GatherVectors(store);
  ASSERT_EQ(va.data().size(), vb.data().size());
  EXPECT_EQ(0, std::memcmp(va.data().data(), vb.data().data(),
                           va.data().size() * sizeof(float)));
}

std::vector<uint64_t> Bits(const std::vector<double>& values) {
  std::vector<uint64_t> bits;
  for (double v : values) bits.push_back(std::bit_cast<uint64_t>(v));
  return bits;
}

std::vector<uint8_t> FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

// ----------------------------------------------------------- Subprocess --

TEST(SubprocessTest, MessageRoundTripAndCleanExit) {
  auto child = util::Subprocess::Fork([](int fd) -> int {
    const char payload[] = "shard done";
    util::Subprocess::WriteMessage(fd, payload, sizeof(payload) - 1)
        .CheckOk();
    return 0;
  });
  ASSERT_TRUE(child.ok()) << child.status().ToString();
  auto message = child->ReadMessage(5000);
  ASSERT_TRUE(message.ok()) << message.status().ToString();
  EXPECT_EQ("shard done", std::string(message->begin(), message->end()));
  auto exit = child->Wait(5000);
  ASSERT_TRUE(exit.ok()) << exit.status().ToString();
  EXPECT_TRUE(exit->exited);
  EXPECT_EQ(0, exit->exit_code);
  EXPECT_FALSE(child->running());
}

TEST(SubprocessTest, WaitTimesOutThenKillReaps) {
  auto child = util::Subprocess::Fork([](int) -> int {
    for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
  });
  ASSERT_TRUE(child.ok()) << child.status().ToString();
  auto timed_out = child->Wait(100);
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(util::StatusCode::kResourceExhausted, timed_out.status().code());
  EXPECT_TRUE(child->running());
  child->Kill(9).CheckOk();
  auto exit = child->Wait(-1);
  ASSERT_TRUE(exit.ok()) << exit.status().ToString();
  EXPECT_TRUE(exit->signaled);
  EXPECT_EQ(9, exit->term_signal);
}

TEST(SubprocessTest, CrashedChildYieldsEofAndSignalStatus) {
  auto child = util::Subprocess::Fork([](int) -> int {
    std::abort();  // no message, abnormal termination
  });
  ASSERT_TRUE(child.ok()) << child.status().ToString();
  auto message = child->ReadMessage(5000);
  ASSERT_FALSE(message.ok());
  EXPECT_EQ(util::StatusCode::kNotFound, message.status().code());
  auto exit = child->Wait(5000);
  ASSERT_TRUE(exit.ok()) << exit.status().ToString();
  EXPECT_FALSE(exit->ok());
}

// ------------------------------------------------------ plan partitioning --

TEST(PartitionPlanTest, CoversAllSourcesExactlyOnce) {
  for (size_t sources : {2u, 3u, 5u, 8u, 13u}) {
    MergePlan plan = MergePlan::Build(sources, /*seed=*/5);
    for (size_t workers : {1u, 2u, 3u, 4u, 16u}) {
      std::vector<ShardAssignment> assignments =
          PartitionPlan(plan, workers);
      ASSERT_GE(assignments.size(), 1u);
      EXPECT_LE(assignments.size(), std::min<size_t>(workers, sources));
      std::vector<size_t> seen;
      for (const ShardAssignment& a : assignments) {
        EXPECT_FALSE(a.roots.empty());
        seen.insert(seen.end(), a.sources.begin(), a.sources.end());
      }
      std::sort(seen.begin(), seen.end());
      std::vector<size_t> expected(sources);
      std::iota(expected.begin(), expected.end(), 0);
      EXPECT_EQ(expected, seen)
          << sources << " sources, " << workers << " workers";
    }
  }
}

// ------------------------------------------------- MergeSource equivalence --

// Resident tables and MEMMERGT spill files, opened on the heap or mapped,
// must materialize bitwise-identical tables.
TEST(MergeSourceTest, ResidentSpillAndMappedSpillAgree) {
  // A real merged table (multi-member items): the pipeline's
  // phases S and R over two sources, then one two-table merge.
  auto tables = CorpusTables(2, 50);
  const MultiEmConfig config = PipelineConfig();
  core::PipelineComponents components;
  core::ResolveComponents(config, &components).CheckOk();
  auto selection = core::SelectAttributes(config, tables,
                                          components.encoder.get(), nullptr);
  ASSERT_TRUE(selection.ok()) << selection.status().ToString();
  const core::EntityEmbeddingStore store = core::EmbedSources(
      tables, *selection, {0, 1}, components.encoder.get(), nullptr);
  const core::TwoTableMerger merger(config, &store,
                                    *components.index_factory);
  const MergeTable merged =
      merger.Merge(MergeTable::FromSource(store, 0),
                   MergeTable::FromSource(store, 1));
  EXPECT_LT(merged.num_items(), tables[0].num_rows() + tables[1].num_rows());

  const std::string spill = TempPath("handle_spill") + ".mem";
  merged.Save(spill).CheckOk();
  util::ArtifactOpenOptions mapped;
  mapped.mapping = util::ArtifactOpenOptions::Mapping::kPrefer;
  auto resident_table =
      MergeSource::FromTable(MergeTable(merged)).Materialize(store);
  auto spill_table = MergeSource::FromSpill(spill).Materialize(store);
  auto mapped_table =
      MergeSource::FromSpill(spill, mapped).Materialize(store);
  ASSERT_TRUE(resident_table.ok()) << resident_table.status().ToString();
  ASSERT_TRUE(spill_table.ok()) << spill_table.status().ToString();
  ASSERT_TRUE(mapped_table.ok()) << mapped_table.status().ToString();
  ExpectTablesBitwise(merged, *resident_table, store);
  ExpectTablesBitwise(merged, *spill_table, store);
  ExpectTablesBitwise(merged, *mapped_table, store);
}

// --------------------------------------------------- distributed building --

// N-process builds must reproduce the single-process pipeline bit for bit:
// same tuples, same attribute selection, same per-level merge stats, same
// prune stats. Four workers over six sources leave the coordinator all
// three level-0 pairs; with a pool it merges them concurrently.
TEST(DistribBuildTest, MatchesSingleProcessBitwiseForOneTwoFourWorkers) {
  auto tables = CorpusTables(6, 60);
  PipelineResult single = RunSingleProcess(tables);

  const std::pair<size_t, size_t> runs[] = {{1, 1}, {2, 1}, {4, 1}, {4, 3}};
  for (const auto& [workers, threads] : runs) {
    CoordinatorOptions options;
    options.num_workers = workers;
    options.work_dir = TempPath("build_w" + std::to_string(workers) + "_t" +
                                std::to_string(threads));
    MultiEmConfig config = PipelineConfig();
    config.num_threads = threads;
    Coordinator coordinator(config, options);
    auto distributed = coordinator.Build(tables);
    ASSERT_TRUE(distributed.ok())
        << workers << " workers, " << threads
        << " threads: " << distributed.status().ToString();

    const PipelineResult& run = distributed->run;
    EXPECT_EQ(single.tuples, run.tuples)
        << workers << " workers, " << threads << " threads";
    EXPECT_EQ(single.selection.selected_columns,
              run.selection.selected_columns);
    EXPECT_EQ(single.selection.selected_names, run.selection.selected_names);
    EXPECT_EQ(Bits(single.selection.shuffle_similarity),
              Bits(run.selection.shuffle_similarity));
    EXPECT_EQ(single.merge_stats.total_mutual_pairs,
              run.merge_stats.total_mutual_pairs);
    ASSERT_EQ(single.merge_stats.levels.size(),
              run.merge_stats.levels.size());
    for (size_t l = 0; l < single.merge_stats.levels.size(); ++l) {
      EXPECT_EQ(single.merge_stats.levels[l].tables_in,
                run.merge_stats.levels[l].tables_in);
      EXPECT_EQ(single.merge_stats.levels[l].pairs_merged,
                run.merge_stats.levels[l].pairs_merged);
      EXPECT_EQ(single.merge_stats.levels[l].mutual_pairs,
                run.merge_stats.levels[l].mutual_pairs);
    }
    EXPECT_EQ(single.prune_stats.items_examined,
              run.prune_stats.items_examined);
    EXPECT_EQ(single.prune_stats.outliers_removed,
              run.prune_stats.outliers_removed);
    EXPECT_EQ(single.prune_stats.tuples_dropped,
              run.prune_stats.tuples_dropped);
    EXPECT_EQ(std::min<size_t>(workers, tables.size()),
              distributed->distrib.workers);
  }
}

// The saved serving artifact of a 2-process build must be byte-identical to
// the single-process one — the strongest equivalence the subsystem claims
// (and what CI gates with cmp at scale).
TEST(DistribBuildTest, SavedArtifactBytesMatchSingleProcess) {
  auto tables = CorpusTables(4, 50);
  PipelineResult single = RunSingleProcess(tables, /*build_matcher=*/true);
  const std::string single_dir = TempPath("artifact_single");
  single.matcher->Save(single_dir).CheckOk();

  CoordinatorOptions options;
  options.num_workers = 2;
  options.work_dir = TempPath("artifact_workers");
  options.build_matcher = true;
  Coordinator coordinator(PipelineConfig(), options);
  auto distributed = coordinator.Build(tables);
  ASSERT_TRUE(distributed.ok()) << distributed.status().ToString();
  ASSERT_NE(nullptr, distributed->run.matcher);
  const std::string distrib_dir = TempPath("artifact_distrib");
  distributed->run.matcher->Save(distrib_dir).CheckOk();

  for (const char* file : {core::PipelineArtifact::kManifestFile,
                           core::PipelineArtifact::kEncoderFile,
                           core::PipelineArtifact::kIndexFile}) {
    EXPECT_EQ(FileBytes(single_dir + "/" + file),
              FileBytes(distrib_dir + "/" + file))
        << file;
  }
}

// SIGKILLing a worker mid-build must surface as a retry that recovers and
// still produces the single-process answer.
TEST(DistribBuildTest, KilledWorkerIsRetriedAndRecovered) {
  auto tables = CorpusTables(4, 40);
  PipelineResult single = RunSingleProcess(tables);

  CoordinatorOptions options;
  options.num_workers = 2;
  options.work_dir = TempPath("kill_recover");
  options.kill_worker = 0;
  options.worker_retry.max_attempts = 2;
  Coordinator coordinator(PipelineConfig(), options);
  auto distributed = coordinator.Build(tables);
  ASSERT_TRUE(distributed.ok()) << distributed.status().ToString();
  EXPECT_GE(distributed->distrib.retries, 1u);
  EXPECT_EQ(single.tuples, distributed->run.tuples);
}

// A hung worker must be reaped at the deadline and retried; no zombie, no
// indefinite hang.
TEST(DistribBuildTest, HungWorkerIsReapedAtTimeoutAndRetried) {
  auto tables = CorpusTables(4, 40);
  PipelineResult single = RunSingleProcess(tables);

  CoordinatorOptions options;
  options.num_workers = 2;
  options.work_dir = TempPath("hang_recover");
  options.hang_worker = 1;
  options.worker_timeout_ms = 1500;
  options.worker_retry.max_attempts = 2;
  Coordinator coordinator(PipelineConfig(), options);
  auto distributed = coordinator.Build(tables);
  ASSERT_TRUE(distributed.ok()) << distributed.status().ToString();
  EXPECT_GE(distributed->distrib.retries, 1u);
  EXPECT_EQ(single.tuples, distributed->run.tuples);
}

// A worker retry must also surface in the per-level attempt counters: the
// re-forked worker's nodes cost two attempts each.
TEST(DistribBuildTest, RetriedWorkerAttemptsSurfaceInLevelStats) {
  auto tables = CorpusTables(4, 40);
  CoordinatorOptions options;
  options.num_workers = 2;
  options.work_dir = TempPath("attempts_surface");
  options.kill_worker = 0;
  options.worker_retry.max_attempts = 2;
  options.worker_retry.initial_backoff_ms = 1;
  Coordinator coordinator(PipelineConfig(), options);
  auto distributed = coordinator.Build(tables);
  ASSERT_TRUE(distributed.ok()) << distributed.status().ToString();
  ASSERT_GE(distributed->distrib.retries, 1u);
  size_t pairs = 0, attempts = 0;
  for (const core::MergeLevelProgress& level :
       distributed->run.merge_stats.levels) {
    pairs += level.pairs_merged;
    attempts += level.total_attempts;
  }
  EXPECT_GT(attempts, pairs) << "retried worker's extra attempts not counted";
}

// A coordinator process killed after its workers finished must adopt their
// completed shards on the next Build over the same work dir instead of
// re-forking anything — and still reproduce the single-process answer.
TEST(DistribBuildTest, ReusesCompletedShardsAcrossCoordinatorRestart) {
  auto tables = CorpusTables(4, 40);
  PipelineResult single = RunSingleProcess(tables);
  const std::string work_dir = TempPath("restart_reuse");

  // First coordinator: crash (hard _exit in a fork) at the moment every
  // worker has been reaped and all shard manifests are durable.
  auto child = util::Subprocess::Fork([&](int) -> int {
    // Drop hit counters inherited from this process's earlier builds so the
    // armed first hit fires in the child.
    util::FaultInjector::Global().Reset();
    util::FaultInjector::Global().Arm(
        util::FaultSpec{.site = "coordinator.assemble",
                        .action = util::FaultAction::kCrash});
    CoordinatorOptions options;
    options.num_workers = 2;
    options.work_dir = work_dir;
    Coordinator coordinator(PipelineConfig(), options);
    auto built = coordinator.Build(tables);
    return built.ok() ? 1 : 2;  // unreachable: the crash fires first
  });
  ASSERT_TRUE(child.ok()) << child.status().ToString();
  auto ws = child->Wait(/*timeout_ms=*/180000);
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  ASSERT_TRUE(ws->exited);
  ASSERT_EQ(42, ws->exit_code);  // util/fault.h's crash exit code

  // Restarted coordinator, same inputs, same work dir: both shards adopted.
  CoordinatorOptions options;
  options.num_workers = 2;
  options.work_dir = work_dir;
  Coordinator coordinator(PipelineConfig(), options);
  auto rebuilt = coordinator.Build(tables);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_EQ(2u, rebuilt->distrib.shards_reused);
  EXPECT_EQ(0u, rebuilt->distrib.retries);
  EXPECT_EQ(single.tuples, rebuilt->run.tuples);

  // reuse_shards=false forces a cold rebuild over the same work dir.
  options.reuse_shards = false;
  Coordinator cold(PipelineConfig(), options);
  auto rebuilt_cold = cold.Build(tables);
  ASSERT_TRUE(rebuilt_cold.ok()) << rebuilt_cold.status().ToString();
  EXPECT_EQ(0u, rebuilt_cold->distrib.shards_reused);
  EXPECT_EQ(single.tuples, rebuilt_cold->run.tuples);
}

// A stale or foreign shard manifest in the work dir must be rebuilt, never
// trusted and never fatal: neither bytes that are no manifest at all, nor a
// checksum-valid manifest whose "stats" count its section cannot hold.
TEST(DistribBuildTest, StaleShardIsRebuiltNotTrusted) {
  auto tables = CorpusTables(4, 40);
  PipelineResult single = RunSingleProcess(tables);

  const std::string work_dir = TempPath("stale_shard");
  const std::string shard0 = work_dir + "/" + distrib::ShardDirName(0);
  std::filesystem::create_directories(shard0);
  std::ofstream(shard0 + "/" + distrib::ShardManifestName(), std::ios::binary)
      << "not a MEMSHARD manifest";

  const std::string shard1 = work_dir + "/" + distrib::ShardDirName(1);
  std::filesystem::create_directories(shard1);
  util::ArtifactWriter oversized(distrib::kShardMagic, distrib::kShardVersion);
  util::ByteWriter& meta = oversized.AddSection("meta");
  meta.WriteU64(tables.size());
  meta.WriteU64(PipelineConfig().seed);
  meta.WriteU64(PipelineConfig().embedding_dim);
  for (int array = 0; array < 3; ++array) meta.WriteU64Array({});
  oversized.AddSection("stats").WriteU64(uint64_t{1} << 40);
  oversized.WriteFile(shard1 + "/" + distrib::ShardManifestName()).CheckOk();

  CoordinatorOptions options;
  options.num_workers = 2;
  options.work_dir = work_dir;
  Coordinator coordinator(PipelineConfig(), options);
  auto built = coordinator.Build(tables);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(0u, built->distrib.shards_reused);
  EXPECT_EQ(single.tuples, built->run.tuples);
}

// A reused shard's merge outputs are loaded over the shard's own bases
// before anything trusts them, so a checksum-valid MEMMERGT that names an
// entity outside the shard makes the shard unusable: it is rebuilt like a
// stale manifest, and the build matches a fresh one. Planted: a v2 spill
// naming a row far past source 0, a v2 spill naming a real entity of a
// source the shard does not cover, and a v1 spill whose rows are too wide.
TEST(DistribBuildTest, ReusedShardWithForeignSpillIsRebuilt) {
  auto tables = CorpusTables(4, 40);
  PipelineResult single = RunSingleProcess(tables);
  const std::string work_dir = TempPath("foreign_spill");
  CoordinatorOptions options;
  options.num_workers = 2;
  options.work_dir = work_dir;
  {
    Coordinator coordinator(PipelineConfig(), options);
    auto built = coordinator.Build(tables);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
  }
  const std::string shard0 = work_dir + "/" + distrib::ShardDirName(0);
  auto opened = distrib::OpenShardArtifact(shard0);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const auto covered = static_cast<uint32_t>(opened->covered_sources[0]);
  uint32_t uncovered = 0;
  while (std::find(opened->covered_sources.begin(),
                   opened->covered_sources.end(),
                   uncovered) != opened->covered_sources.end()) {
    ++uncovered;
  }
  const size_t dim = static_cast<size_t>(opened->dim);

  const struct {
    const char* what;
    std::vector<table::EntityId> members;
    size_t rows_dim;  // 0: a v2 file; otherwise v1 rows this wide
  } cases[] = {
      {"row past the source",
       {table::EntityId(covered, 0), table::EntityId(covered, 1u << 20)},
       0},
      {"source of another shard",
       {table::EntityId(covered, 0), table::EntityId(uncovered, 0)},
       0},
      {"v1 rows too wide", {table::EntityId(covered, 0)}, dim + 1},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.what);
    std::string spill;
    for (const auto& entry : std::filesystem::directory_iterator(shard0)) {
      if (entry.path().filename().string().rfind("merge_", 0) == 0) {
        spill = entry.path().string();
      }
    }
    ASSERT_FALSE(spill.empty()) << "two workers over four sources merge";
    util::ArtifactWriter writer(MergeTable::kArtifactMagic,
                                c.rows_dim == 0 ? 2 : 1);
    util::ByteWriter& items = writer.AddSection("items");
    items.WriteU64(1);
    items.WriteU64(c.members.size());
    for (table::EntityId id : c.members) items.WriteU64(id.packed());
    if (c.rows_dim != 0) {
      embed::WriteMatrix(writer.AddSection("embeddings"),
                         embed::EmbeddingMatrix(1, c.rows_dim));
    }
    writer.WriteFile(spill).CheckOk();

    Coordinator coordinator(PipelineConfig(), options);
    auto rebuilt = coordinator.Build(tables);
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
    EXPECT_EQ(1u, rebuilt->distrib.shards_reused);
    EXPECT_EQ(single.tuples, rebuilt->run.tuples);
  }
}

// Every build path resolves components as MultiEmPipeline::Run does, so
// HNSW knobs the pipeline rejects are rejected by the coordinator before it
// forks and by a worker before it creates its shard directory.
TEST(DistribBuildTest, RejectsTheHnswKnobsThePipelineRejects) {
  auto tables = CorpusTables(4, 40);
  MultiEmConfig degree_one = PipelineConfig();
  degree_one.index_name = "hnsw";
  degree_one.hnsw_m = 1;
  MultiEmConfig narrow_beam = PipelineConfig();
  narrow_beam.index_name = "hnsw";
  narrow_beam.k = 4;
  narrow_beam.hnsw_ef_search = 2;
  for (const MultiEmConfig& config : {degree_one, narrow_beam}) {
    EXPECT_EQ(util::StatusCode::kInvalidArgument,
              MultiEmPipeline(config).Run(tables).status().code());

    CoordinatorOptions options;
    options.num_workers = 2;
    options.work_dir = TempPath("bad_knobs");
    auto built = Coordinator(config, options).Build(tables);
    EXPECT_EQ(util::StatusCode::kInvalidArgument, built.status().code())
        << built.status().ToString();
    for (size_t w = 0; w < 2; ++w) {
      EXPECT_FALSE(std::filesystem::exists(options.work_dir + "/" +
                                           distrib::ShardDirName(w)));
    }

    std::vector<ShardAssignment> assignments =
        PartitionPlan(MergePlan::Build(tables.size(), config.seed), 2);
    ShardWorkerOptions worker;
    worker.shard_dir = TempPath("bad_knobs_worker");
    EXPECT_EQ(util::StatusCode::kInvalidArgument,
              distrib::RunShardWorker(config, tables, assignments[0], worker)
                  .code());
    EXPECT_FALSE(std::filesystem::exists(worker.shard_dir));
  }
}

// With retries exhausted the build must fail with a clean Status (and the
// destructor sweep must leave no child behind — the test completing at all
// is the hang check).
TEST(DistribBuildTest, ExhaustedRetriesFailWithCleanStatus) {
  auto tables = CorpusTables(4, 40);
  CoordinatorOptions options;
  options.num_workers = 2;
  options.work_dir = TempPath("kill_fail");
  options.kill_worker = 1;
  options.worker_retry.max_attempts = 1;
  Coordinator coordinator(PipelineConfig(), options);
  auto distributed = coordinator.Build(tables);
  ASSERT_FALSE(distributed.ok());
  EXPECT_NE(std::string::npos,
            distributed.status().message().find("attempt"))
      << distributed.status().ToString();
}

}  // namespace
}  // namespace multiem
