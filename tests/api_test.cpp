// Tests for the composable pipeline API: component registries (custom
// encoders / index factories / pruners registered from this TU, with zero
// edits under src/core), the PipelineBuilder, config validation of the
// component names and HNSW knobs, observer event ordering, and cooperative
// cancellation with partial phase timings.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ann/brute_force.h"
#include "ann/index_factory.h"
#include "core/pipeline.h"
#include "core/registry.h"
#include "datagen/datasets.h"
#include "util/string_util.h"

namespace multiem::core {
namespace {

// ------------------------------------------------- test-local components --

// Deterministic whole-text hashing encoder: identical texts get identical
// embeddings, distinct texts get near-orthogonal ones. Enough structure for
// the pipeline to match duplicated rows end-to-end.
class FakeTextEncoder : public embed::TextEncoder {
 public:
  explicit FakeTextEncoder(size_t dim = 32) : dim_(dim) {}

  static std::atomic<size_t>& EncodeCalls() {
    static std::atomic<size_t> calls{0};
    return calls;
  }
  static std::atomic<size_t>& FitCalls() {
    static std::atomic<size_t> calls{0};
    return calls;
  }

  size_t dim() const override { return dim_; }

  std::unique_ptr<embed::TextEncoder> Clone() const override {
    return std::make_unique<FakeTextEncoder>(dim_);
  }

  void FitCorpus(const std::vector<std::string>& corpus) override {
    (void)corpus;
    FitCalls().fetch_add(1);
  }

  void EncodeInto(std::string_view text, std::span<float> out) const override {
    EncodeCalls().fetch_add(1);
    uint64_t h = util::HashString(text);
    for (size_t d = 0; d < dim_; ++d) {
      h = h * 6364136223846793005ULL + 1442695040888963407ULL;
      out[d] = (h >> 40) % 2 == 0 ? 1.0f : -1.0f;
    }
    embed::L2NormalizeInPlace(out);
  }

 private:
  size_t dim_;
};

// Brute-force index factory that counts how many indexes it built, so a
// test can prove the pipeline consumed it.
class CountingIndexFactory : public ann::VectorIndexFactory {
 public:
  static std::atomic<size_t>& Creations() {
    static std::atomic<size_t> count{0};
    return count;
  }

  std::unique_ptr<ann::VectorIndex> Create(size_t dim,
                                           ann::Metric metric) const override {
    Creations().fetch_add(1);
    return std::make_unique<ann::BruteForceIndex>(dim, metric);
  }
};

// Pass-through pruner: keeps every >=2-member candidate untouched.
class KeepAllPruner : public Pruner {
 public:
  std::vector<eval::Tuple> Prune(const MergeTable& integrated,
                                 const PruneContext& ctx,
                                 PruneStats* stats) const override {
    (void)ctx;
    std::vector<eval::Tuple> tuples;
    size_t examined = 0;
    for (size_t i = 0; i < integrated.num_items(); ++i) {
      const std::vector<table::EntityId>& members = integrated.members(i);
      if (members.size() < 2) continue;
      ++examined;
      tuples.push_back(members);
    }
    if (stats != nullptr) stats->items_examined = examined;
    return tuples;
  }
};

// Registered once for the whole test binary; selected by name below.
MULTIEM_REGISTER_COMPONENT(TextEncoders, "fake", [](const MultiEmConfig&) {
  return std::make_unique<FakeTextEncoder>();
})
MULTIEM_REGISTER_COMPONENT(IndexFactories, "counting_brute",
                           [](const MultiEmConfig&) {
                             return std::make_unique<CountingIndexFactory>();
                           })
MULTIEM_REGISTER_COMPONENT(Pruners, "keep_all", [](const MultiEmConfig&) {
  return std::make_unique<KeepAllPruner>();
})

// ---------------------------------------------------------- test fixtures --

// `num_tables` sources listing the same `rows` distinct titles, so every
// row r should land in one tuple of size num_tables.
std::vector<table::Table> SharedTitleTables(size_t num_tables, size_t rows) {
  std::vector<std::string> titles = {
      "silent golden river",  "crimson harbor nights",
      "electric meadow dance", "frozen lantern waltz",
      "wandering ember song",  "velvet horizon tale",
      "broken compass blues",  "shining feather hymn"};
  table::Schema schema({"title"});
  std::vector<table::Table> tables;
  for (size_t s = 0; s < num_tables; ++s) {
    table::Table t("source_" + std::to_string(s), schema);
    for (size_t r = 0; r < rows; ++r) {
      t.AppendRow({titles[r % titles.size()]}).CheckOk();
    }
    tables.push_back(std::move(t));
  }
  return tables;
}

MultiEmConfig TinyConfig() {
  MultiEmConfig config;
  config.sample_ratio = 1.0;
  config.m = 0.2f;
  return config;
}

// Records every observer event as a string for ordering assertions.
class RecordingObserver : public PipelineObserver {
 public:
  void OnPhaseStart(std::string_view phase) override {
    events.push_back("start:" + std::string(phase));
  }
  void OnPhaseEnd(std::string_view phase, double seconds) override {
    EXPECT_GE(seconds, 0.0);
    events.push_back("end:" + std::string(phase));
  }
  void OnMergeLevel(const MergeLevelProgress& p) override {
    EXPECT_GT(p.tables_in, p.tables_out);
    events.push_back("level:" + std::to_string(p.level));
  }
  void OnPruneProgress(size_t done, size_t total) override {
    EXPECT_LE(done, total);
    events.push_back("prune");
  }

  std::vector<std::string> events;
};

// --------------------------------------------------------------- registry --

TEST(RegistryTest, BuiltinsAreRegistered) {
  EXPECT_TRUE(TextEncoders().Contains(kDefaultEncoderName));
  EXPECT_TRUE(IndexFactories().Contains(kDefaultIndexName));
  EXPECT_TRUE(IndexFactories().Contains(kBruteForceIndexName));
  EXPECT_TRUE(Pruners().Contains(kDefaultPrunerName));
}

TEST(RegistryTest, DuplicateRegistrationIsRejectedAndKeepsOriginal) {
  EXPECT_FALSE(TextEncoders().Register(
      kDefaultEncoderName,
      [](const MultiEmConfig&) { return std::make_unique<FakeTextEncoder>(); }));
  // The original hashing encoder must still be what "hashing" resolves to.
  auto created = TextEncoders().Create(kDefaultEncoderName, MultiEmConfig{});
  ASSERT_TRUE(created.ok());
  EXPECT_EQ((*created)->dim(), MultiEmConfig{}.embedding_dim);
}

TEST(RegistryTest, UnknownNameErrorListsRegisteredNames) {
  auto created = TextEncoders().Create("no-such-encoder", MultiEmConfig{});
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(created.status().message().find("no-such-encoder"),
            std::string::npos);
  EXPECT_NE(created.status().message().find("hashing"), std::string::npos);
}

// ------------------------------------------------------- config validation --

TEST(ConfigValidationTest, RejectsBadHnswKnobs) {
  MultiEmConfig c = TinyConfig();
  c.hnsw_m = 0;
  EXPECT_FALSE(c.Validate().ok());

  c = TinyConfig();
  c.k = 4;
  c.hnsw_ef_search = 2;  // beam narrower than k
  auto status = c.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("hnsw_ef_search"), std::string::npos);

  c = TinyConfig();
  c.hnsw_ef_construction = 0;
  EXPECT_FALSE(c.Validate().ok());
}

TEST(ConfigValidationTest, RejectsUnknownComponentNames) {
  MultiEmConfig c = TinyConfig();
  c.encoder_name = "bogus-encoder";
  auto status = c.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("encoder_name"), std::string::npos);
  EXPECT_NE(status.message().find("registered:"), std::string::npos);

  c = TinyConfig();
  c.index_name = "bogus-index";
  status = c.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("index_name"), std::string::npos);

  c = TinyConfig();
  c.pruner_name = "bogus-pruner";
  status = c.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("pruner_name"), std::string::npos);
}

TEST(ConfigValidationTest, HnswKnobsIgnoredWhenHnswNotSelected) {
  // A brute-force (or custom) assembly must not be rejected over knobs
  // that only the built-in HNSW index consumes.
  MultiEmConfig c = TinyConfig();
  c.index_name = "brute_force";
  c.k = 64;      // wider than the default hnsw_ef_search of 48
  c.hnsw_m = 0;  // nonsense, but unused
  EXPECT_TRUE(c.Validate().ok());
  auto pipeline = PipelineBuilder(c).Build();
  EXPECT_TRUE(pipeline.ok()) << pipeline.status();

  // Same knobs with HNSW selected are still rejected.
  c.index_name = "hnsw";
  EXPECT_FALSE(c.Validate().ok());
  EXPECT_FALSE(PipelineBuilder(c).Build().ok());
}

// Every comparison with NaN is false, so a range check of the form
// `x < lo || x > hi` lets NaN through. Both validators must name the field.
void ExpectRejected(const MultiEmConfig& c, const std::string& field) {
  for (const util::Status& status : {c.ValidateValues(), c.Validate()}) {
    EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument) << status;
    EXPECT_EQ(status.message().rfind(field + " must", 0), 0u) << status;
  }
}

TEST(ConfigValidationTest, RejectsNanSampleRatio) {
  MultiEmConfig c = TinyConfig();
  c.sample_ratio = std::numeric_limits<double>::quiet_NaN();
  ExpectRejected(c, "sample_ratio");
}

TEST(ConfigValidationTest, RejectsNanGamma) {
  MultiEmConfig c = TinyConfig();
  c.gamma = std::numeric_limits<double>::quiet_NaN();
  ExpectRejected(c, "gamma");
}

TEST(ConfigValidationTest, RejectsNanM) {
  MultiEmConfig c = TinyConfig();
  c.m = std::numeric_limits<float>::quiet_NaN();
  ExpectRejected(c, "m");
}

TEST(ConfigValidationTest, RejectsNonFiniteEps) {
  MultiEmConfig c = TinyConfig();
  c.eps = std::numeric_limits<float>::quiet_NaN();
  ExpectRejected(c, "eps");
  c.eps = std::numeric_limits<float>::infinity();
  ExpectRejected(c, "eps");
}

// ---------------------------------------------------------------- builder --

TEST(PipelineBuilderTest, UnknownNamesFailAtBuild) {
  MultiEmConfig config = TinyConfig();
  config.encoder_name = "no-such-encoder";
  auto pipeline = PipelineBuilder(config).Build();
  ASSERT_FALSE(pipeline.ok());
  EXPECT_EQ(pipeline.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(pipeline.status().message().find("registered:"),
            std::string::npos);
}

TEST(PipelineBuilderTest, InjectedEncoderOverridesUnknownName) {
  MultiEmConfig config = TinyConfig();
  config.encoder_name = "name-that-does-not-matter";
  auto pipeline = PipelineBuilder(config)
                      .WithEncoder(std::make_unique<FakeTextEncoder>())
                      .Build();
  ASSERT_TRUE(pipeline.ok()) << pipeline.status();

  size_t encodes_before = FakeTextEncoder::EncodeCalls().load();
  size_t fits_before = FakeTextEncoder::FitCalls().load();
  auto result = pipeline->Run(SharedTitleTables(3, 8));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(FakeTextEncoder::EncodeCalls().load(), encodes_before);
  // FitCorpus must be called for the full-schema and the selected corpus.
  EXPECT_GE(FakeTextEncoder::FitCalls().load(), fits_before + 2);
  // Identical titles across the 3 sources -> 8 tuples of size 3.
  ASSERT_EQ(result->tuples.size(), 8u);
  for (const auto& tuple : result->tuples) EXPECT_EQ(tuple.size(), 3u);
}

TEST(PipelineBuilderTest, RegisteredEncoderSelectedByNameDrivesPipeline) {
  MultiEmConfig config = TinyConfig();
  config.encoder_name = "fake";  // registered by this TU, not src/core
  auto pipeline = PipelineBuilder(config).Build();
  ASSERT_TRUE(pipeline.ok()) << pipeline.status();
  size_t before = FakeTextEncoder::EncodeCalls().load();
  auto result = pipeline->Run(SharedTitleTables(4, 6));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(FakeTextEncoder::EncodeCalls().load(), before);
  ASSERT_EQ(result->tuples.size(), 6u);
  for (const auto& tuple : result->tuples) EXPECT_EQ(tuple.size(), 4u);
}

TEST(PipelineBuilderTest, RegisteredIndexFactorySelectedByName) {
  MultiEmConfig config = TinyConfig();
  config.index_name = "counting_brute";  // registered by this TU
  auto pipeline = PipelineBuilder(config).Build();
  ASSERT_TRUE(pipeline.ok()) << pipeline.status();
  size_t before = CountingIndexFactory::Creations().load();
  auto result = pipeline->Run(SharedTitleTables(3, 8));
  ASSERT_TRUE(result.ok()) << result.status();
  // Two indexes per pairwise merge, at least two merges for 3 tables.
  EXPECT_GE(CountingIndexFactory::Creations().load(), before + 4);
}

TEST(PipelineBuilderTest, InjectedIndexFactoryAndPrunerAreUsed) {
  size_t before = CountingIndexFactory::Creations().load();
  // Under the default "hybrid" these small merges scan exactly and the
  // factory is never asked; "hnsw" builds two indexes per merge.
  MultiEmConfig config = TinyConfig();
  config.index_name = "hnsw";
  auto pipeline = PipelineBuilder(config)
                      .WithIndexFactory(std::make_unique<CountingIndexFactory>())
                      .WithPruner(std::make_unique<KeepAllPruner>())
                      .Build();
  ASSERT_TRUE(pipeline.ok()) << pipeline.status();
  auto result = pipeline->Run(SharedTitleTables(3, 8));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(CountingIndexFactory::Creations().load(), before);
  // KeepAllPruner reports via items_examined and removes nothing.
  EXPECT_EQ(result->prune_stats.outliers_removed, 0u);
  EXPECT_EQ(result->prune_stats.items_examined, 8u);
}

// Wraps a factory and forwards nothing but Create, as an outside
// instrument does (the perf ledger's traced rep wraps the registry's).
class ForwardingIndexFactory : public ann::VectorIndexFactory {
 public:
  ForwardingIndexFactory(std::unique_ptr<ann::VectorIndexFactory> inner,
                         std::atomic<size_t>* creations)
      : inner_(std::move(inner)), creations_(creations) {}
  std::unique_ptr<ann::VectorIndex> Create(size_t dim,
                                           ann::Metric metric) const override {
    creations_->fetch_add(1);
    return inner_->Create(dim, metric);
  }

 private:
  std::unique_ptr<ann::VectorIndexFactory> inner_;
  std::atomic<size_t>* creations_;
};

TEST(PipelineBuilderTest, HybridInjectedForwardingFactoryKeepsTheTuples) {
  auto bench = datagen::MakeDataset("person", /*scale=*/0.05);
  ASSERT_TRUE(bench.ok()) << bench.status();
  // Lean knobs price an index build low enough that the rule scans the
  // first merges of this corpus and sends the larger later ones to HNSW.
  MultiEmConfig config;
  config.hnsw_m = 2;
  config.hnsw_ef_construction = 20;
  config.hnsw_ef_search = 8;
  ASSERT_EQ(config.index_name, "hybrid");

  auto plain = PipelineBuilder(config).Build();
  ASSERT_TRUE(plain.ok()) << plain.status();
  auto inner = IndexFactories().Create(config.index_name, config);
  ASSERT_TRUE(inner.ok()) << inner.status();
  std::atomic<size_t> creations{0};
  auto wrapped =
      PipelineBuilder(config)
          .WithIndexFactory(std::make_unique<ForwardingIndexFactory>(
              std::move(*inner), &creations))
          .Build();
  ASSERT_TRUE(wrapped.ok()) << wrapped.status();

  auto expected = plain->Run(bench->tables);
  auto got = wrapped->Run(bench->tables);
  ASSERT_TRUE(expected.ok()) << expected.status();
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->ToTupleSet().tuples(), expected->ToTupleSet().tuples());
  // Both routes ran: some merge asked the factory for its two indexes, and
  // some merge of the four scanned without it.
  const size_t merges = bench->tables.size() - 1;
  EXPECT_GT(creations.load(), 0u);
  EXPECT_LT(creations.load(), 2 * merges);
}

// --------------------------------------------------------------- sessions --

TEST(RunSessionTest, ObserverSeesPhasesInOrderWithMergeLevels) {
  auto tables = SharedTitleTables(4, 8);
  RecordingObserver observer;
  RunContext ctx;
  ctx.observer = &observer;
  PipelineResult result;
  auto pipeline = PipelineBuilder(TinyConfig()).Build();
  ASSERT_TRUE(pipeline.ok());
  util::Status status = pipeline->Run(tables, ctx, &result);
  ASSERT_TRUE(status.ok()) << status;

  // 4 tables merge in ceil(log2 4) = 2 levels.
  std::vector<std::string> expected = {
      "start:selection",      "end:selection",
      "start:representation", "end:representation",
      "start:merging",        "level:0",
      "level:1",              "end:merging",
      "start:pruning",        "prune",
      "end:pruning"};
  EXPECT_EQ(observer.events, expected);
  EXPECT_FALSE(result.tuples.empty());
}

// Observer that fires a cancellation token when a chosen event occurs.
class CancellingObserver : public PipelineObserver {
 public:
  CancellingObserver(CancellationToken* token, std::string trigger_phase,
                     bool on_merge_level = false)
      : token_(token),
        trigger_phase_(std::move(trigger_phase)),
        on_merge_level_(on_merge_level) {}

  void OnPhaseStart(std::string_view phase) override {
    if (!on_merge_level_ && phase == trigger_phase_) token_->Cancel();
  }
  void OnMergeLevel(const MergeLevelProgress&) override {
    if (on_merge_level_) token_->Cancel();
  }

 private:
  CancellationToken* token_;
  std::string trigger_phase_;
  bool on_merge_level_;
};

TEST(RunSessionTest, CancellationMidMergeReturnsPartialTimings) {
  auto tables = SharedTitleTables(4, 8);  // 2 merge levels
  CancellationToken token;
  CancellingObserver observer(&token, "", /*on_merge_level=*/true);
  RunContext ctx;
  ctx.observer = &observer;
  ctx.cancel = &token;
  PipelineResult result;
  auto pipeline = PipelineBuilder(TinyConfig()).Build();
  ASSERT_TRUE(pipeline.ok());
  util::Status status = pipeline->Run(tables, ctx, &result);
  ASSERT_EQ(status.code(), util::StatusCode::kCancelled) << status;
  // Completed phases keep their timings; pruning never ran.
  EXPECT_GT(result.timings.Get(kPhaseSelection), 0.0);
  EXPECT_GT(result.timings.Get(kPhaseRepresentation), 0.0);
  EXPECT_GT(result.timings.Get(kPhaseMerging), 0.0);
  EXPECT_EQ(result.timings.Get(kPhasePruning), 0.0);
  // Only the first merge level completed before the token was honored.
  EXPECT_EQ(result.merge_stats.levels.size(), 1u);
  EXPECT_TRUE(result.tuples.empty());
}

TEST(RunSessionTest, CancellationBeforePruningSkipsPruneWork) {
  auto tables = SharedTitleTables(3, 8);
  CancellationToken token;
  CancellingObserver observer(&token, kPhasePruning);
  RunContext ctx;
  ctx.observer = &observer;
  ctx.cancel = &token;
  PipelineResult result;
  auto pipeline = PipelineBuilder(TinyConfig()).Build();
  ASSERT_TRUE(pipeline.ok());
  util::Status status = pipeline->Run(tables, ctx, &result);
  ASSERT_EQ(status.code(), util::StatusCode::kCancelled) << status;
  // The pruner saw the fired token before its first batch.
  EXPECT_EQ(result.prune_stats.items_examined, 0u);
  EXPECT_TRUE(result.tuples.empty());
  EXPECT_GT(result.timings.Get(kPhaseMerging), 0.0);
}

TEST(RunSessionTest, PreCancelledTokenStopsAfterFirstPhase) {
  auto tables = SharedTitleTables(2, 6);
  CancellationToken token;
  token.Cancel();
  RunContext ctx;
  ctx.cancel = &token;
  PipelineResult result;
  MultiEmPipeline pipeline(TinyConfig());
  util::Status status = pipeline.Run(tables, ctx, &result);
  EXPECT_EQ(status.code(), util::StatusCode::kCancelled);
  EXPECT_EQ(result.timings.Get(kPhaseMerging), 0.0);
}

TEST(RunSessionTest, ConcurrentRunsOnOneBuiltPipelineAreIsolated) {
  // A builder-assembled pipeline shares its components across runs; each
  // Run() must clone the encoder before FitCorpus so two concurrent sessions
  // never race on shared encoder state (run under TSan in CI). Different
  // table sets per thread prove the runs don't bleed into each other.
  MultiEmConfig config = TinyConfig();
  config.num_threads = 2;  // each run also spins up its own pool
  auto pipeline = PipelineBuilder(config).Build();
  ASSERT_TRUE(pipeline.ok()) << pipeline.status();

  auto tables_a = SharedTitleTables(3, 8);
  auto tables_b = SharedTitleTables(4, 6);
  constexpr int kRunsPerThread = 3;
  std::atomic<int> failures{0};
  auto run_many = [&](const std::vector<table::Table>& tables,
                      size_t want_tuples, size_t want_size) {
    for (int r = 0; r < kRunsPerThread; ++r) {
      auto result = pipeline->Run(tables);
      if (!result.ok() || result->tuples.size() != want_tuples) {
        failures.fetch_add(1);
        continue;
      }
      for (const auto& tuple : result->tuples) {
        if (tuple.size() != want_size) failures.fetch_add(1);
      }
    }
  };
  std::thread ta([&] { run_many(tables_a, 8, 3); });
  std::thread tb([&] { run_many(tables_b, 6, 4); });
  ta.join();
  tb.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(RunSessionTest, LegacyRunStillWorksOnRealDataset) {
  // The registry-resolved default assembly must behave exactly like the
  // seed pipeline on a generated benchmark.
  auto bench = datagen::MakeDataset("music-20", /*scale=*/0.1);
  ASSERT_TRUE(bench.ok());
  MultiEmConfig config;
  config.sample_ratio = 0.5;
  MultiEmPipeline pipeline(config);
  auto result = pipeline.Run(bench->tables);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->tuples.empty());
}

}  // namespace
}  // namespace multiem::core
