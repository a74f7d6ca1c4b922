// Scale-out subsystem tests: spilled (disk-backed) merge execution must be
// bitwise-equivalent to the in-memory one while keeping only one table pair
// resident; the streaming scale corpus must drive the full
// pipeline; and the mmap zero-copy serving path must answer exactly like the
// heap path while still rejecting corrupt or truncated artifacts as a
// Status (never UB on mapped pages at open).

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "core/matcher.h"
#include "core/merge_plan.h"
#include "core/pipeline.h"
#include "core/registry.h"
#include "datagen/scale.h"
#include "util/mmap.h"
#include "util/thread_pool.h"

namespace multiem {
namespace {

using core::Matcher;
using core::MergeExecOptions;
using core::MergePlan;
using core::MergeSource;
using core::MergeStats;
using core::MergeTable;
using core::MultiEmConfig;
using core::MultiEmPipeline;
using core::PipelineBuilder;
using core::PipelineResult;
using core::RunContext;

std::string TempPath(const std::string& name) {
  std::string path = ::testing::TempDir() + "multiem_scale_" + name;
  std::filesystem::remove_all(path);
  return path;
}

datagen::ScaleCorpusConfig CorpusConfig(size_t sources, size_t rows) {
  datagen::ScaleCorpusConfig config;
  config.seed = 17;
  config.num_sources = sources;
  config.rows_per_source = rows;
  config.overlap = 0.4;
  return config;
}

MultiEmConfig PipelineConfig() {
  MultiEmConfig config;
  config.sample_ratio = 0.25;
  config.m = 0.5f;
  config.index_name = "brute_force";  // deterministic across thread counts
  config.seed = 5;
  return config;
}

std::vector<table::Table> CorpusTables(size_t sources, size_t rows) {
  datagen::ScaleCorpusGenerator gen(CorpusConfig(sources, rows));
  std::vector<table::Table> tables;
  for (size_t s = 0; s < gen.num_sources(); ++s) {
    tables.push_back(gen.MaterializeSource(s));
  }
  return tables;
}

// ---------------------------------------------------- Spilled merging ----

// Same seed, same config: the disk-backed schedule must reproduce the
// in-memory integrated table bit for bit — items, members, and embeddings.
TEST(SpilledMergeTest, MatchesResidentMergeBitwise) {
  auto tables = CorpusTables(5, 80);
  MultiEmConfig config = PipelineConfig();
  auto pipeline = PipelineBuilder(config).Build();
  pipeline.status().CheckOk();

  // Embed once through the pipeline's representation path by running it
  // twice end-to-end: once in-memory, once spilled.
  RunContext plain;
  PipelineResult in_memory;
  pipeline->Run(tables, plain, &in_memory).CheckOk();

  const std::string spill_dir = TempPath("merge_equiv");
  RunContext spilled;
  spilled.merge_spill_dir = spill_dir;
  PipelineResult sharded;
  pipeline->Run(tables, spilled, &sharded).CheckOk();

  EXPECT_EQ(in_memory.tuples, sharded.tuples);
  ASSERT_EQ(in_memory.merge_stats.levels.size(),
            sharded.merge_stats.levels.size());
  for (size_t l = 0; l < in_memory.merge_stats.levels.size(); ++l) {
    EXPECT_EQ(in_memory.merge_stats.levels[l].mutual_pairs,
              sharded.merge_stats.levels[l].mutual_pairs)
        << "level " << l;
  }
  EXPECT_EQ(in_memory.merge_stats.total_mutual_pairs,
            sharded.merge_stats.total_mutual_pairs);
  // Cleanup mode removes every spill file it created.
  size_t leftover = 0;
  if (std::filesystem::exists(spill_dir)) {
    for ([[maybe_unused]] const auto& entry :
         std::filesystem::directory_iterator(spill_dir)) {
      ++leftover;
    }
  }
  EXPECT_EQ(leftover, 0u);
}

// Resident memory of the spilled merge is bounded by one pair plus its
// output — far below the sum of all tables once there are enough sources.
TEST(SpilledMergeTest, ResidencyIsBoundedByOnePair) {
  datagen::ScaleCorpusGenerator gen(CorpusConfig(8, 64));
  MultiEmConfig config = PipelineConfig();

  // Build the merge inputs directly (embeddings via the pipeline would do
  // the same; here the embedding content is irrelevant).
  core::EntityEmbeddingStore store;
  std::vector<MergeSource> slots;
  size_t total_bytes = 0;
  for (size_t s = 0; s < gen.num_sources(); ++s) {
    embed::EmbeddingMatrix m(gen.rows_per_source(), 32);
    for (size_t r = 0; r < m.num_rows(); ++r) {
      m.Row(r)[(s * 7 + r) % 32] = 1.0f;
    }
    store.AddSource(std::move(m));
    MergeTable table =
        MergeTable::FromSource(store, static_cast<uint32_t>(s));
    // What the table costs resident: its member lists plus the vectors a
    // merge gathers for it.
    total_bytes += table.SizeBytes() + store.source(s).SizeBytes();
    slots.push_back(MergeSource::FromTable(std::move(table)));
  }

  const MergePlan plan = MergePlan::Build(gen.num_sources(), config.seed);
  auto factory = core::IndexFactories().Create(config.index_name, config);
  ASSERT_TRUE(factory.ok()) << factory.status();
  const core::TwoTableMerger merger(config, &store, **factory);
  MergeStats stats;
  util::Status status = core::ExecuteMergePlan(
      plan, slots, merger, MergeExecOptions::Spilled(TempPath("merge_bounded")),
      nullptr, &stats);
  ASSERT_TRUE(status.ok()) << status;
  auto integrated = slots[plan.root()].Acquire(store);
  ASSERT_TRUE(integrated.ok()) << integrated.status();

  EXPECT_GT(stats.spill_files_written, gen.num_sources());
  EXPECT_GT(stats.peak_resident_bytes, 0u);
  // 8 equal-sized inputs: a level-0 pair (+ its merge result) is about 3/8
  // of the corpus; later levels grow, but the peak pair is always at most
  // the two final half-corpus tables + the integrated table. Assert the
  // useful direction: the peak never approaches all-tables-resident plus
  // the integrated copy (which is what the in-memory merge holds at the
  // end of level 0).
  EXPECT_LT(stats.peak_resident_bytes, total_bytes + total_bytes / 2);
  // The total spilled volume covers at least every input once.
  EXPECT_GT(stats.spill_bytes_written, 0u);
}

// A run cancelled before merging reports Cancelled for the merging phase,
// spilled or not.
TEST(SpilledMergeTest, CancellationStopsTheMergingPhase) {
  auto tables = CorpusTables(6, 24);
  auto pipeline = PipelineBuilder(PipelineConfig()).Build();
  pipeline.status().CheckOk();

  // Cancel from the representation phase's end, so merging sees the token
  // fired before its first level.
  struct CancelBeforeMerging : core::PipelineObserver {
    core::CancellationToken* cancel = nullptr;
    void OnPhaseStart(std::string_view phase) override {
      if (phase == core::kPhaseMerging) cancel->Cancel();
    }
  };
  for (bool spilled : {false, true}) {
    core::CancellationToken cancel;
    CancelBeforeMerging observer;
    observer.cancel = &cancel;
    RunContext ctx;
    ctx.cancel = &cancel;
    ctx.observer = &observer;
    if (spilled) ctx.merge_spill_dir = TempPath("merge_cancel");
    PipelineResult result;
    util::Status status = pipeline->Run(tables, ctx, &result);
    EXPECT_EQ(status.code(), util::StatusCode::kCancelled) << status;
    EXPECT_NE(status.message().find("merging"), std::string::npos) << status;
    EXPECT_TRUE(result.merge_stats.nodes.empty());
  }
}

// ------------------------------------------------------- mmap serving ----

// One artifact shared by the mmap serving tests, built over a scale-corpus
// slice big enough that the index and matrices span many pages.
const std::string& ScaleArtifactDir() {
  static const std::string dir = [] {
    std::string path = TempPath("artifact");
    auto tables = CorpusTables(3, 120);
    auto pipeline = PipelineBuilder(PipelineConfig()).Build();
    pipeline.status().CheckOk();
    RunContext ctx;
    ctx.build_matcher = true;
    PipelineResult result;
    pipeline->Run(tables, ctx, &result).CheckOk();
    result.matcher->Save(path).CheckOk();
    return path;
  }();
  return dir;
}

table::Table ScaleQueries() {
  datagen::ScaleCorpusGenerator gen(CorpusConfig(3, 120));
  table::Table q("queries", gen.schema());
  gen.AppendRows(/*source=*/1, /*row_begin=*/0, /*row_end=*/32, &q);
  return q;
}

// The zero-copy path must be invisible to callers: bit-identical hits, same
// member resolution, across verification depths.
TEST(MmapServingTest, MappedAndHeapAnswersAreBitIdentical) {
  auto heap = MultiEmPipeline::LoadArtifact(ScaleArtifactDir());
  ASSERT_TRUE(heap.ok()) << heap.status();

  util::ArtifactOpenOptions mapped_options;
  mapped_options.mapping = util::ArtifactOpenOptions::Mapping::kPrefer;
  auto mapped = MultiEmPipeline::LoadArtifact(ScaleArtifactDir(),
                                              mapped_options);
  ASSERT_TRUE(mapped.ok()) << mapped.status();

  util::ArtifactOpenOptions fast_options;
  fast_options.mapping = util::ArtifactOpenOptions::Mapping::kPrefer;
  fast_options.verify = util::ArtifactOpenOptions::Verify::kStructural;
  auto fast = MultiEmPipeline::LoadArtifact(ScaleArtifactDir(), fast_options);
  ASSERT_TRUE(fast.ok()) << fast.status();

  const table::Table queries = ScaleQueries();
  auto heap_matches = heap->MatchRecords(queries, /*k=*/3);
  ASSERT_TRUE(heap_matches.ok()) << heap_matches.status();
  auto mapped_matches = mapped->MatchRecords(queries, /*k=*/3);
  ASSERT_TRUE(mapped_matches.ok()) << mapped_matches.status();
  auto fast_matches = fast->MatchRecords(queries, /*k=*/3);
  ASSERT_TRUE(fast_matches.ok()) << fast_matches.status();

  EXPECT_EQ(*heap_matches, *mapped_matches);
  EXPECT_EQ(*heap_matches, *fast_matches);
  const Matcher::Snapshot heap_snap = heap->snapshot();
  const Matcher::Snapshot mapped_snap = mapped->snapshot();
  ASSERT_EQ(heap_snap.num_items(), mapped_snap.num_items());
  for (size_t i = 0; i < heap_snap.num_items(); ++i) {
    ASSERT_EQ(heap_snap.item_members(i), mapped_snap.item_members(i));
  }
}

// kPrefer must work everywhere: where the platform lacks mmap it silently
// reads into heap memory instead (the graceful-fallback satellite); where
// mmap exists, kRequire documents which mode the test actually exercised.
TEST(MmapServingTest, PreferFallsBackWhereRequireFails) {
  util::ArtifactOpenOptions require;
  require.mapping = util::ArtifactOpenOptions::Mapping::kRequire;
  auto required = MultiEmPipeline::LoadArtifact(ScaleArtifactDir(), require);
  if (util::MmapFile::Supported()) {
    ASSERT_TRUE(required.ok()) << required.status();
  } else {
    ASSERT_FALSE(required.ok());
    EXPECT_EQ(required.status().code(), util::StatusCode::kUnimplemented);
  }

  util::ArtifactOpenOptions prefer;
  prefer.mapping = util::ArtifactOpenOptions::Mapping::kPrefer;
  auto preferred = MultiEmPipeline::LoadArtifact(ScaleArtifactDir(), prefer);
  ASSERT_TRUE(preferred.ok()) << preferred.status();
  auto matches = preferred->MatchRecords(ScaleQueries(), /*k=*/2);
  ASSERT_TRUE(matches.ok());
}

// Corrupt mapped artifacts must fail the open (or load) with a Status —
// never reach query time, never fault on mapped pages. The heap open, which
// reads each section into its own block, must reject the same bytes.
TEST(MmapServingTest, MappedOpenRejectsBitFlipsAsStatus) {
  const std::string dir = TempPath("corrupt_artifact");
  std::filesystem::copy(ScaleArtifactDir(), dir,
                        std::filesystem::copy_options::recursive);
  const std::string manifest = dir + "/manifest.mem";
  const auto file_size = std::filesystem::file_size(manifest);

  // Flip one byte at several spread offsets (header, table, payloads).
  for (size_t numerator = 0; numerator < 8; ++numerator) {
    const auto offset =
        static_cast<std::streamoff>(file_size * numerator / 8);
    {
      std::fstream f(manifest,
                     std::ios::in | std::ios::out | std::ios::binary);
      ASSERT_TRUE(f.is_open());
      f.seekg(offset);
      char byte;
      f.read(&byte, 1);
      byte = static_cast<char>(byte ^ 0x40);
      f.seekp(offset);
      f.write(&byte, 1);
    }
    for (auto mapping : {util::ArtifactOpenOptions::Mapping::kDisable,
                         util::ArtifactOpenOptions::Mapping::kPrefer}) {
      util::ArtifactOpenOptions options;
      options.mapping = mapping;
      auto loaded = MultiEmPipeline::LoadArtifact(dir, options);
      EXPECT_FALSE(loaded.ok()) << "flip at offset " << offset
                                << " accepted, mapping mode "
                                << static_cast<int>(mapping);
    }
    {  // restore
      std::fstream f(manifest,
                     std::ios::in | std::ios::out | std::ios::binary);
      f.seekg(offset);
      char byte;
      f.read(&byte, 1);
      byte = static_cast<char>(byte ^ 0x40);
      f.seekp(offset);
      f.write(&byte, 1);
    }
  }
  // Restored file loads again.
  util::ArtifactOpenOptions options;
  options.mapping = util::ArtifactOpenOptions::Mapping::kPrefer;
  auto ok = MultiEmPipeline::LoadArtifact(dir, options);
  EXPECT_TRUE(ok.ok()) << ok.status();
}

// The sharpest truncation: everything past the 24-byte container header is
// gone (a crashed copy, a torn download). The heap read and both mapped
// modes must degrade to a clean Status — never bind section spans over the
// missing bytes.
TEST(MmapServingTest, MappedOpenRejectsTruncationAfterHeader) {
  const std::string dir = TempPath("header_only_artifact");
  std::filesystem::copy(ScaleArtifactDir(), dir,
                        std::filesystem::copy_options::recursive);
  const std::string manifest = dir + "/manifest.mem";

  for (uintmax_t keep : {uintmax_t{24}, uintmax_t{40}}) {
    std::filesystem::resize_file(manifest, keep);
    for (auto mapping : {util::ArtifactOpenOptions::Mapping::kDisable,
                         util::ArtifactOpenOptions::Mapping::kPrefer,
                         util::ArtifactOpenOptions::Mapping::kRequire}) {
      util::ArtifactOpenOptions options;
      options.mapping = mapping;
      auto loaded = MultiEmPipeline::LoadArtifact(dir, options);
      EXPECT_FALSE(loaded.ok())
          << "accepted a manifest truncated to " << keep
          << " bytes, mapping mode " << static_cast<int>(mapping);
    }
  }
}

TEST(MmapServingTest, MappedOpenRejectsTruncationAsStatus) {
  const std::string dir = TempPath("truncated_artifact");
  std::filesystem::copy(ScaleArtifactDir(), dir,
                        std::filesystem::copy_options::recursive);
  const std::string manifest = dir + "/manifest.mem";
  const auto file_size = std::filesystem::file_size(manifest);

  for (double fraction : {0.95, 0.5, 0.1, 0.001}) {
    std::filesystem::resize_file(
        manifest, static_cast<uintmax_t>(file_size * fraction));
    for (auto mapping : {util::ArtifactOpenOptions::Mapping::kDisable,
                         util::ArtifactOpenOptions::Mapping::kPrefer}) {
      util::ArtifactOpenOptions options;
      options.mapping = mapping;
      options.verify = util::ArtifactOpenOptions::Verify::kStructural;
      auto loaded = MultiEmPipeline::LoadArtifact(dir, options);
      EXPECT_FALSE(loaded.ok()) << "truncation to " << fraction
                                << " accepted, mapping mode "
                                << static_cast<int>(mapping);
    }
  }
}

// ------------------------------------------------ pipeline on the corpus --

// End-to-end: streamed corpus -> pipeline (spilled merge) -> artifact ->
// mmap serve. The shared-prefix rows must resolve to multi-member items.
TEST(ScalePipelineTest, SharedRowsMergeAcrossSources) {
  datagen::ScaleCorpusGenerator gen(CorpusConfig(3, 120));
  std::vector<table::Table> tables;
  for (size_t s = 0; s < gen.num_sources(); ++s) {
    tables.push_back(gen.MaterializeSource(s));
  }
  auto pipeline = PipelineBuilder(PipelineConfig()).Build();
  pipeline.status().CheckOk();
  RunContext ctx;
  ctx.build_matcher = true;
  ctx.merge_spill_dir = TempPath("pipeline_spill");
  PipelineResult result;
  pipeline->Run(tables, ctx, &result).CheckOk();
  // At 40% overlap and gentle corruption most shared rows merge; require a
  // solid majority rather than an exact count (the encoder is lossy).
  EXPECT_GT(result.tuples.size(), gen.shared_rows() / 2);

  const std::string dir = TempPath("pipeline_artifact");
  result.matcher->Save(dir).CheckOk();
  util::ArtifactOpenOptions options;
  options.mapping = util::ArtifactOpenOptions::Mapping::kPrefer;
  options.verify = util::ArtifactOpenOptions::Verify::kStructural;
  auto served = MultiEmPipeline::LoadArtifact(dir, options);
  ASSERT_TRUE(served.ok()) << served.status();
  auto matches = served->MatchRecords(ScaleQueries(), /*k=*/1);
  ASSERT_TRUE(matches.ok());
  size_t multi_member_hits = 0;
  const Matcher::Snapshot snap = served->snapshot();
  for (const auto& row : *matches) {
    if (!row.empty() && snap.item_members(row[0].item).size() >= 2) {
      ++multi_member_hits;
    }
  }
  EXPECT_GT(multi_member_hits, 0u);
}

// bench_scale's lean knobs on sources past 3,000 rows: the "hybrid" rule
// sends every merge to two HNSW builds, and the serving index holds every
// item. Insert rounds do not depend on the pool, so the tuples and the
// saved index.mem are identical at 1, 2 and 4 threads, with no
// "brute_force" pin.
TEST(ScalePipelineTest, LeanHnswBuildIsTheSameOnAnyThreadCount) {
  auto tables = CorpusTables(3, 3200);
  MultiEmConfig config;
  config.embedding_dim = 48;
  config.sample_ratio = 0.05;
  config.m = 0.5f;
  config.hnsw_m = 8;
  config.hnsw_ef_construction = 40;
  config.hnsw_ef_search = 32;
  config.seed = 7;
  std::vector<PipelineResult> results;
  std::vector<std::string> index_bytes;
  for (size_t threads : {1u, 2u, 4u}) {
    config.num_threads = threads;
    auto pipeline = PipelineBuilder(config).Build();
    pipeline.status().CheckOk();
    RunContext ctx;
    ctx.build_matcher = true;
    PipelineResult& result = results.emplace_back();
    pipeline->Run(tables, ctx, &result).CheckOk();
    const std::string dir = TempPath("lean_" + std::to_string(threads));
    result.matcher->Save(dir).CheckOk();
    std::ifstream in(dir + "/index.mem", std::ios::binary);
    index_bytes.emplace_back(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
    std::filesystem::remove_all(dir);
  }
  ASSERT_FALSE(results[0].tuples.empty());
  ASSERT_FALSE(index_bytes[0].empty());
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i].tuples, results[0].tuples) << "run " << i;
    EXPECT_TRUE(index_bytes[i] == index_bytes[0]) << "run " << i;
  }
}

}  // namespace
}  // namespace multiem
