// Integration tests: the end-to-end MultiEM pipeline on generated
// benchmarks — accuracy floors, parallel/serial agreement, seed robustness
// (Figure 6(b)), ablation ordering, input validation.

#include <gtest/gtest.h>

#include <unordered_set>

#include "core/pipeline.h"
#include "datagen/datasets.h"
#include "eval/metrics.h"

namespace multiem::core {
namespace {

datagen::MultiSourceBenchmark SmallMusic() {
  auto b = datagen::MakeDataset("music-20", /*scale=*/0.25);
  b.status().CheckOk();
  return std::move(*b);
}

MultiEmConfig TunedConfig() {
  MultiEmConfig config;
  config.m = 0.35f;
  config.eps = 1.0f;
  config.gamma = 0.9;
  config.sample_ratio = 0.5;
  return config;
}

TEST(PipelineTest, RejectsBadInputs) {
  MultiEmPipeline pipeline;
  EXPECT_FALSE(pipeline.Run({}).ok());
  table::Table only("one", table::Schema({"v"}));
  EXPECT_FALSE(pipeline.Run({only}).ok());
  table::Table a("a", table::Schema({"v"}));
  table::Table b("b", table::Schema({"other"}));
  EXPECT_FALSE(pipeline.Run({a, b}).ok());

  MultiEmConfig bad;
  bad.k = 0;
  MultiEmPipeline invalid(bad);
  EXPECT_FALSE(invalid.Run({a, a}).ok());
}

TEST(PipelineTest, RejectsEmptyTablesWithDescriptiveError) {
  MultiEmPipeline pipeline;
  table::Table filled("filled", table::Schema({"v"}));
  filled.AppendRow({"x"}).CheckOk();
  table::Table empty("hollow", table::Schema({"v"}));
  auto result = pipeline.Run({filled, empty});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("hollow"), std::string::npos);
  EXPECT_NE(result.status().message().find("empty"), std::string::npos);
}

TEST(PipelineTest, RejectsDuplicateTableNames) {
  MultiEmPipeline pipeline;
  table::Table a("twin", table::Schema({"v"}));
  a.AppendRow({"x"}).CheckOk();
  table::Table b("twin", table::Schema({"v"}));
  b.AppendRow({"y"}).CheckOk();
  auto result = pipeline.Run({a, b});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("duplicate"), std::string::npos);
  EXPECT_NE(result.status().message().find("twin"), std::string::npos);
}

TEST(PipelineTest, RecoversTruthOnMusic) {
  auto bench = SmallMusic();
  MultiEmPipeline pipeline(TunedConfig());
  auto result = pipeline.Run(bench.tables);
  ASSERT_TRUE(result.ok());
  eval::Prf tuple_prf = eval::EvaluateTuples(result->ToTupleSet(), bench.truth);
  eval::Prf pair_prf = eval::EvaluatePairs(result->ToTupleSet(), bench.truth);
  // Floors, not exact numbers: the point is the pipeline genuinely matches.
  EXPECT_GT(tuple_prf.f1, 0.6) << "tuple F1 collapsed";
  EXPECT_GT(pair_prf.f1, 0.75) << "pair F1 collapsed";
  // pair-F1 is the looser metric (Example 2).
  EXPECT_GE(pair_prf.f1, tuple_prf.f1 - 0.05);
}

TEST(PipelineTest, AllPhasesTimedAndStatsFilled) {
  auto bench = SmallMusic();
  MultiEmPipeline pipeline(TunedConfig());
  auto result = pipeline.Run(bench.tables);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->timings.Get(kPhaseSelection), 0.0);
  EXPECT_GT(result->timings.Get(kPhaseRepresentation), 0.0);
  EXPECT_GT(result->timings.Get(kPhaseMerging), 0.0);
  EXPECT_GT(result->timings.Get(kPhasePruning), 0.0);
  EXPECT_FALSE(result->merge_stats.levels.empty());
  EXPECT_GT(result->merge_stats.total_mutual_pairs, 0u);
  EXPECT_GT(result->approx_peak_bytes, 0u);
}

TEST(PipelineTest, SelectsInformativeMusicAttributes) {
  auto bench = SmallMusic();
  MultiEmPipeline pipeline(TunedConfig());
  auto result = pipeline.Run(bench.tables);
  ASSERT_TRUE(result.ok());
  std::unordered_set<std::string> selected(result->selection.selected_names.begin(),
                                           result->selection.selected_names.end());
  // Table VII: title/artist/album in, id out.
  EXPECT_TRUE(selected.count("title")) << "title not selected";
  EXPECT_TRUE(selected.count("artist")) << "artist not selected";
  EXPECT_TRUE(selected.count("album")) << "album not selected";
  EXPECT_FALSE(selected.count("id")) << "noise id selected";
}

TEST(PipelineTest, ParallelMatchesSerialTuples) {
  auto bench = SmallMusic();
  MultiEmConfig serial_config = TunedConfig();
  serial_config.num_threads = 1;
  MultiEmConfig parallel_config = TunedConfig();
  parallel_config.num_threads = 4;
  auto serial = MultiEmPipeline(serial_config).Run(bench.tables);
  auto parallel = MultiEmPipeline(parallel_config).Run(bench.tables);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  // Section III-E: parallelization must not change the matching output.
  EXPECT_EQ(serial->ToTupleSet().tuples(), parallel->ToTupleSet().tuples());
}

// Under the default "hybrid" index the merges of a small corpus fall under
// the cost rule and scan exactly, and the scan's pairs do not depend on the
// thread count: the tuples are identical at 1, 2 and 4 threads.
TEST(PipelineTest, HybridParallelTuplesMatchSerialOnPerson) {
  auto bench = datagen::MakeDataset("person", /*scale=*/0.05);
  ASSERT_TRUE(bench.ok()) << bench.status();
  MultiEmConfig config = TunedConfig();
  ASSERT_EQ(config.index_name, "hybrid");
  std::vector<std::vector<std::vector<table::EntityId>>> per_threads;
  for (size_t threads : {1u, 2u, 4u}) {
    config.num_threads = threads;
    auto result = MultiEmPipeline(config).Run(bench->tables);
    ASSERT_TRUE(result.ok()) << result.status();
    per_threads.push_back(result->ToTupleSet().tuples());
  }
  ASSERT_FALSE(per_threads[0].empty());
  EXPECT_EQ(per_threads[0], per_threads[1]) << "2 threads";
  EXPECT_EQ(per_threads[0], per_threads[2]) << "4 threads";
}

// Under "hnsw" every merge of Person x0.3 builds two graphs over sources of
// more than 1,024 rows, and the serving index holds every item. The graphs
// do not depend on the pool, so the tuples are identical at 1, 2 and 4
// threads.
TEST(PipelineTest, HnswParallelTuplesMatchSerialOnPerson) {
  auto bench = datagen::MakeDataset("person", /*scale=*/0.3);
  ASSERT_TRUE(bench.ok()) << bench.status();
  MultiEmConfig config = TunedConfig();
  config.index_name = "hnsw";
  std::vector<std::vector<std::vector<table::EntityId>>> per_threads;
  for (size_t threads : {1u, 2u, 4u}) {
    config.num_threads = threads;
    auto result = MultiEmPipeline(config).Run(bench->tables);
    ASSERT_TRUE(result.ok()) << result.status();
    per_threads.push_back(result->ToTupleSet().tuples());
  }
  ASSERT_FALSE(per_threads[0].empty());
  EXPECT_EQ(per_threads[0], per_threads[1]) << "2 threads";
  EXPECT_EQ(per_threads[0], per_threads[2]) << "4 threads";
}

TEST(PipelineTest, NoEntityInTwoPredictedTuples) {
  auto bench = SmallMusic();
  MultiEmPipeline pipeline(TunedConfig());
  auto result = pipeline.Run(bench.tables);
  ASSERT_TRUE(result.ok());
  std::unordered_set<uint64_t> seen;
  for (const auto& tuple : result->tuples) {
    EXPECT_GE(tuple.size(), 2u);
    for (auto id : tuple) {
      EXPECT_TRUE(seen.insert(id.packed()).second);
      ASSERT_LT(id.source(), bench.tables.size());
      ASSERT_LT(id.row(), bench.tables[id.source()].num_rows());
    }
  }
}

// Figure 6(b): the merge order (seed) barely moves F1.
class SeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeedSweep, MergeOrderInsensitive) {
  auto bench = SmallMusic();
  MultiEmConfig config = TunedConfig();
  config.seed = GetParam();
  auto result = MultiEmPipeline(config).Run(bench.tables);
  ASSERT_TRUE(result.ok());
  eval::Prf prf = eval::EvaluateTuples(result->ToTupleSet(), bench.truth);
  EXPECT_GT(prf.f1, 0.55) << "seed " << GetParam() << " collapsed";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep, ::testing::Values(0, 1, 2, 3));

TEST(PipelineAblationTest, RemovingModulesDegradesOrKeepsF1) {
  auto bench = SmallMusic();
  MultiEmConfig full_config = TunedConfig();
  auto full = MultiEmPipeline(full_config).Run(bench.tables);
  ASSERT_TRUE(full.ok());
  double full_f1 = eval::EvaluateTuples(full->ToTupleSet(), bench.truth).f1;

  MultiEmConfig no_eer = full_config;
  no_eer.enable_attribute_selection = false;
  auto without_eer = MultiEmPipeline(no_eer).Run(bench.tables);
  ASSERT_TRUE(without_eer.ok());
  double eer_f1 =
      eval::EvaluateTuples(without_eer->ToTupleSet(), bench.truth).f1;

  // Attribute selection must stay competitive with the all-attributes
  // variant. (The paper's Table IV shows EER strictly helping; with the
  // hashing-encoder substitution numeric columns act as weak keys instead of
  // embedding noise, so the two variants land within a few points of each
  // other — see EXPERIMENTS.md for the full discussion.)
  EXPECT_LE(eer_f1, full_f1 + 0.08);
  // All attributes used when EER is off.
  EXPECT_EQ(without_eer->selection.selected_columns.size(),
            bench.tables[0].num_columns());
}

TEST(PipelineAblationTest, ExactKnnCloseToHnsw) {
  auto bench = SmallMusic();
  MultiEmConfig hnsw_config = TunedConfig();
  hnsw_config.index_name = "hnsw";  // the default "hybrid" scans these merges
  MultiEmConfig exact_config = TunedConfig();
  exact_config.index_name = "brute_force";
  auto hnsw = MultiEmPipeline(hnsw_config).Run(bench.tables);
  auto exact = MultiEmPipeline(exact_config).Run(bench.tables);
  ASSERT_TRUE(hnsw.ok());
  ASSERT_TRUE(exact.ok());
  double hnsw_f1 = eval::EvaluateTuples(hnsw->ToTupleSet(), bench.truth).f1;
  double exact_f1 = eval::EvaluateTuples(exact->ToTupleSet(), bench.truth).f1;
  EXPECT_NEAR(hnsw_f1, exact_f1, 0.05);
}

TEST(PipelineTest, WorksOnGeo) {
  auto b = datagen::MakeDataset("geo", 0.3);
  ASSERT_TRUE(b.ok());
  MultiEmConfig config = TunedConfig();
  config.gamma = 0.8;  // Geo grid values: reject coordinates, loose m
  config.m = 0.5f;
  auto result = MultiEmPipeline(config).Run(b->tables);
  ASSERT_TRUE(result.ok());
  // Table VII: only `name` survives selection on Geo.
  ASSERT_EQ(result->selection.selected_names.size(), 1u);
  EXPECT_EQ(result->selection.selected_names[0], "name");
  eval::Prf prf = eval::EvaluateTuples(result->ToTupleSet(), b->truth);
  EXPECT_GT(prf.f1, 0.5);
}

TEST(PipelineTest, WorksOnPersonKeepingAllAttributes) {
  auto b = datagen::MakeDataset("person", 0.03);
  ASSERT_TRUE(b.ok());
  MultiEmConfig config = TunedConfig();
  config.m = 0.2f;
  auto result = MultiEmPipeline(config).Run(b->tables);
  ASSERT_TRUE(result.ok());
  // Short records: selection must keep several attributes (Table VII keeps
  // all four on Person).
  EXPECT_GE(result->selection.selected_columns.size(), 3u);
  eval::Prf prf = eval::EvaluateTuples(result->ToTupleSet(), b->truth);
  EXPECT_GT(prf.f1, 0.2);
}

}  // namespace
}  // namespace multiem::core
