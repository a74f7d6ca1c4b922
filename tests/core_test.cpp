// Unit tests for src/core internals: config validation, merge tables,
// attribute selection (Algorithm 1), two-table merging (Algorithm 3),
// hierarchical merging (Algorithm 2, ExecuteMergePlan), density pruning
// (Algorithm 4).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <thread>

#include "ann/brute_force.h"
#include "ann/index_factory.h"
#include "core/attribute_selector.h"
#include "core/density_pruner.h"
#include "core/merge_plan.h"
#include "core/merge_table.h"
#include "core/registry.h"
#include "core/two_table_merger.h"
#include "embed/hashing_encoder.h"
#include "embed/matrix_io.h"
#include "embed/serialize.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace multiem::core {
namespace {

using table::EntityId;

// ---------------------------------------------------------------- Config --

TEST(ConfigTest, DefaultsAreValid) {
  EXPECT_TRUE(MultiEmConfig{}.Validate().ok());
}

TEST(ConfigTest, RejectsBadValues) {
  MultiEmConfig c;
  c.k = 0;
  EXPECT_FALSE(c.Validate().ok());
  c = MultiEmConfig{};
  c.m = 3.0f;
  EXPECT_FALSE(c.Validate().ok());
  c = MultiEmConfig{};
  c.gamma = 0.0;
  EXPECT_FALSE(c.Validate().ok());
  c = MultiEmConfig{};
  c.sample_ratio = 1.5;
  EXPECT_FALSE(c.Validate().ok());
  c = MultiEmConfig{};
  c.min_pts = 0;
  EXPECT_FALSE(c.Validate().ok());
  c = MultiEmConfig{};
  c.embedding_dim = 0;
  EXPECT_FALSE(c.Validate().ok());
}

// ------------------------------------------------------------ MergeTable --

embed::EmbeddingMatrix UnitAxisVectors(size_t n, size_t dim) {
  embed::EmbeddingMatrix m(n, dim);
  for (size_t i = 0; i < n; ++i) m.Row(i)[i % dim] = 1.0f;
  return m;
}

// A store with one source of `n` unit-axis rows.
EntityEmbeddingStore AxisStore(size_t n, size_t dim) {
  EntityEmbeddingStore store;
  store.AddSource(UnitAxisVectors(n, dim));
  return store;
}

// Store with two sources of axis-aligned vectors; rows i of both sources
// share direction i so they match exactly.
EntityEmbeddingStore PairedStore(size_t n, size_t dim) {
  EntityEmbeddingStore store;
  store.AddSource(UnitAxisVectors(n, dim));
  store.AddSource(UnitAxisVectors(n, dim));
  return store;
}

// The store-derived vectors of a table, flat: what a merge scans and a save
// writes.
std::vector<float> DerivedVectors(const MergeTable& t,
                                  const EntityEmbeddingStore& store) {
  const embed::EmbeddingMatrix m = t.GatherVectors(store);
  return std::vector<float>(m.data().begin(), m.data().end());
}

// Same member lists, and the same bytes in every store-derived vector.
void ExpectSameTable(const MergeTable& a, const MergeTable& b,
                     const EntityEmbeddingStore& store) {
  ASSERT_EQ(a.num_items(), b.num_items());
  for (size_t i = 0; i < a.num_items(); ++i) {
    EXPECT_EQ(a.members(i), b.members(i)) << "item " << i;
  }
  const std::vector<float> va = DerivedVectors(a, store);
  const std::vector<float> vb = DerivedVectors(b, store);
  ASSERT_EQ(va.size(), vb.size());
  EXPECT_EQ(0, std::memcmp(va.data(), vb.data(), va.size() * sizeof(float)));
}

// Writes a MEMMERGT file with the given member lists, bypassing
// MergeTable::Save — the shape a foreign or stale spill can have. With
// `rows` it is a v1 file, whose "embeddings" section holds them.
void WriteRawSpill(const std::string& path,
                   const std::vector<std::vector<EntityId>>& items,
                   const std::optional<embed::EmbeddingMatrix>& rows = {}) {
  util::ArtifactWriter writer(MergeTable::kArtifactMagic,
                              rows ? 1 : MergeTable::kArtifactVersion);
  util::ByteWriter& section = writer.AddSection("items");
  section.WriteU64(items.size());
  for (const std::vector<EntityId>& ids : items) {
    section.WriteU64(ids.size());
    for (EntityId id : ids) section.WriteU64(id.packed());
  }
  if (rows) embed::WriteMatrix(writer.AddSection("embeddings"), *rows);
  writer.WriteFile(path).CheckOk();
}

// Every payload byte of section `name` of the MEMMERGT file at `path`.
std::vector<uint8_t> SpillSection(const std::string& path,
                                  const std::string& name) {
  auto reader = util::ArtifactReader::FromFile(
      path, MergeTable::kArtifactMagic, MergeTable::kArtifactVersion);
  EXPECT_TRUE(reader.ok()) << reader.status();
  if (!reader.ok()) return {};
  auto section = reader->Section(name);
  EXPECT_TRUE(section.ok()) << section.status();
  if (!section.ok()) return {};
  std::vector<uint8_t> bytes(section->remaining());
  for (uint8_t& byte : bytes) EXPECT_TRUE(section->ReadU8(&byte).ok());
  return bytes;
}

TEST(MergeTableTest, FromSourceHoldsOneItemPerEntity) {
  EntityEmbeddingStore store;
  store.AddSource(UnitAxisVectors(2, 8));
  store.AddSource(UnitAxisVectors(2, 8));
  store.AddSource(UnitAxisVectors(4, 8));
  MergeTable t = MergeTable::FromSource(store, 2);
  EXPECT_EQ(t.num_items(), 4u);
  EXPECT_EQ(t.TotalMembers(), 4u);
  EXPECT_EQ(t.members(1), std::vector<EntityId>{EntityId(2, 1)});
  EXPECT_GT(t.SizeBytes(), 0u);
  // A one-member item's vector is its entity's row, bit for bit.
  const std::vector<float> vectors = DerivedVectors(t, store);
  const std::span<const float> rows = store.source(2).data();
  ASSERT_EQ(vectors.size(), rows.size());
  EXPECT_EQ(0, std::memcmp(vectors.data(), rows.data(),
                           rows.size() * sizeof(float)));
}

// Copying a MergeTable shares its chunks; an append clones only the last
// chunk. Observed through member-list addresses: a shared chunk serves the
// same storage to both tables.
TEST(MergeTableTest, CopySharesChunksUntilMutation) {
  const size_t n = MergeTable::kChunkItems + 10;  // two chunks
  const EntityEmbeddingStore store = AxisStore(n, 4);
  const MergeTable original = MergeTable::FromSource(store, 0);
  MergeTable copy = original;
  EXPECT_EQ(&copy.members(0), &original.members(0));
  EXPECT_EQ(&copy.members(n - 1), &original.members(n - 1));

  // Appending to the copy touches only the last chunk; the first stays
  // shared, and the original never changes.
  copy.Append({EntityId(0, 0), EntityId(0, 1)});
  EXPECT_EQ(&copy.members(0), &original.members(0));
  EXPECT_NE(&copy.members(n - 1), &original.members(n - 1));
  EXPECT_EQ(original.num_items(), n);
  EXPECT_EQ(copy.num_items(), n + 1);
  EXPECT_EQ(copy.members(n - 1), original.members(n - 1));
  EXPECT_EQ(copy.members(n), (std::vector<EntityId>{EntityId(0, 0),
                                                    EntityId(0, 1)}));
}

// A mutation clones only the chunk it touches, member lists only:
// tombstoning in a copy clones chunk 0 and never alters the original.
TEST(MergeTableTest, TombstoneClonesOnlyItsChunk) {
  const size_t n = MergeTable::kChunkItems + 10;  // two chunks
  const EntityEmbeddingStore store = AxisStore(n, 4);
  const MergeTable original = MergeTable::FromSource(store, 0);
  MergeTable copy = original;
  copy.Tombstone(3);
  EXPECT_NE(&copy.members(0), &original.members(0));
  EXPECT_EQ(&copy.members(n - 1), &original.members(n - 1));
  EXPECT_TRUE(copy.members(3).empty());
  EXPECT_EQ(copy.num_tombstones(), 1u);
  EXPECT_EQ(copy.num_live_items(), n - 1);
  EXPECT_EQ(original.members(3).size(), 1u);
  EXPECT_EQ(original.num_tombstones(), 0u);
}

// A live item's vector is derived from the store; a tombstone has no
// members to derive from and reads as zeros, whatever it held before.
TEST(MergeTableTest, VectorsDeriveFromTheStoreExceptTombstones) {
  const EntityEmbeddingStore store = AxisStore(4, 4);
  MergeTable t = MergeTable::FromSource(store, 0);
  t.Replace(0, {EntityId(0, 0), EntityId(0, 1)});
  t.Tombstone(2);  // retired out of item order
  t.Tombstone(1);
  ASSERT_EQ(t.num_tombstones(), 2u);

  std::vector<float> want(4);
  store.Centroid(t.members(0), want);
  const embed::EmbeddingMatrix vectors = t.GatherVectors(store);
  ASSERT_EQ(vectors.num_rows(), 4u);
  EXPECT_EQ(std::vector<float>(vectors.Row(0).begin(), vectors.Row(0).end()),
            want);
  const std::vector<float> zeros(4, 0.0f);
  EXPECT_EQ(std::vector<float>(vectors.Row(1).begin(), vectors.Row(1).end()),
            zeros);
  EXPECT_EQ(std::vector<float>(vectors.Row(2).begin(), vectors.Row(2).end()),
            zeros);
  const std::span<const float> own = store.Row(EntityId(0, 3));
  EXPECT_EQ(std::vector<float>(vectors.Row(3).begin(), vectors.Row(3).end()),
            std::vector<float>(own.begin(), own.end()));
}

// A saved table is its member lists alone (MEMMERGT v2: one "items"
// section, no rows), and a load, heap or mapped, gives them back.
TEST(MergeTableTest, SpillRoundTrip) {
  EntityEmbeddingStore store = PairedStore(5, 4);
  MergeTable t;
  for (size_t i = 0; i < 5; ++i) t.Append({EntityId(0, i), EntityId(1, i)});
  ASSERT_EQ(t.num_items(), 5u);
  EXPECT_EQ(t.TotalMembers(), 10u);

  const std::string path =
      ::testing::TempDir() + "multiem_core_spill.mem";
  std::filesystem::remove(path);
  ASSERT_TRUE(t.Save(path).ok());
  {
    auto reader = util::ArtifactReader::FromFile(
        path, MergeTable::kArtifactMagic, MergeTable::kArtifactVersion);
    ASSERT_TRUE(reader.ok()) << reader.status();
    EXPECT_EQ(reader->version(), 2u);
    EXPECT_EQ(reader->SectionNames(), std::vector<std::string>{"items"});
  }
  util::ArtifactOpenOptions mapped;
  mapped.mapping = util::ArtifactOpenOptions::Mapping::kPrefer;
  for (const util::ArtifactOpenOptions& options :
       {util::ArtifactOpenOptions{}, mapped}) {
    auto loaded = MergeTable::Load(path, store, options);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    ExpectSameTable(t, *loaded, store);
  }
  std::filesystem::remove(path);
}

// A checksum-valid MEMMERGT file whose "items" count its section cannot
// hold fails with a Status before anything is reserved for the items.
TEST(MergeTableTest, RejectsItemCountBeyondItsSection) {
  util::ArtifactWriter writer(MergeTable::kArtifactMagic,
                              MergeTable::kArtifactVersion);
  util::ByteWriter& items = writer.AddSection("items");
  items.WriteU64(uint64_t{1} << 40);
  items.WriteU64(1);  // one member of a first item, then nothing more
  items.WriteU64(EntityId(0, 0).packed());
  const std::string path =
      ::testing::TempDir() + "multiem_core_oversized_items.mem";
  ASSERT_TRUE(writer.WriteFile(path).ok());

  auto loaded = MergeTable::Load(path, AxisStore(1, 4));
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument)
      << loaded.status();
  std::filesystem::remove(path);
}

// A checksum-valid MEMMERGT file is checked against the store it will be
// derived from: a member outside the store is InvalidArgument rather than a
// read past the store's rows, in either version, and so are a v1 file's
// rows of another count or width.
TEST(MergeTableTest, LoadRejectsWhatTheStoreCannotDerive) {
  const EntityEmbeddingStore store = AxisStore(3, 4);
  const std::string path =
      ::testing::TempDir() + "multiem_core_foreign_spill.mem";
  const struct {
    const char* what;
    std::vector<std::vector<EntityId>> items;
    std::optional<embed::EmbeddingMatrix> rows;  // set: a v1 file
  } cases[] = {
      {"row past the source", {{EntityId(0, 0)}, {EntityId(0, 3)}}, {}},
      {"unknown source", {{EntityId(0, 0), EntityId(1, 0)}}, {}},
      {"v1 row past the source", {{EntityId(0, 0)}, {EntityId(0, 3)}},
       UnitAxisVectors(2, 4)},
      {"v1 wider rows", {{EntityId(0, 0)}}, UnitAxisVectors(1, 8)},
      {"v1 fewer rows", {{EntityId(0, 0)}, {EntityId(0, 1)}},
       UnitAxisVectors(1, 4)},
  };
  for (const auto& c : cases) {
    WriteRawSpill(path, c.items, c.rows);
    auto loaded = MergeTable::Load(path, store);
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument)
        << c.what << ": " << loaded.status();
  }
  WriteRawSpill(path, {{EntityId(0, 0), EntityId(0, 2)}});
  EXPECT_TRUE(MergeTable::Load(path, store).ok());
  WriteRawSpill(path, {{EntityId(0, 0), EntityId(0, 2)}},
                UnitAxisVectors(1, 4));
  EXPECT_TRUE(MergeTable::Load(path, store).ok());
  std::filesystem::remove(path);
}

#ifndef MULTIEM_GOLDEN_DIR
#error "MULTIEM_GOLDEN_DIR must point at tests/golden (set by CMake)"
#endif

// The checked-in MEMMERGT v1 spill (tests/golden/README.md) still loads,
// heap or mapped, over a store of its shape: two sources of 4 and 3 rows,
// 16 floats wide. Its "embeddings" rows are checked for width (a narrower
// store refuses the file) and ignored; a re-save writes v2 with the same
// "items" bytes.
TEST(MergeTableTest, CheckedInV1SpillLoads) {
  const std::string golden =
      std::string(MULTIEM_GOLDEN_DIR) + "/merge_table_v1.mem";
  auto store_of_width = [](size_t dim) {
    EntityEmbeddingStore store;
    store.AddSource(UnitAxisVectors(4, dim));
    store.AddSource(UnitAxisVectors(3, dim));
    return store;
  };
  const EntityEmbeddingStore store = store_of_width(16);
  const std::vector<std::vector<EntityId>> recorded = {
      {EntityId(0, 0), EntityId(1, 2)},
      {EntityId(0, 1)},
      {EntityId(0, 2), EntityId(0, 3), EntityId(1, 0)},
      {EntityId(1, 1)}};
  util::ArtifactOpenOptions mapped;
  mapped.mapping = util::ArtifactOpenOptions::Mapping::kPrefer;
  for (const util::ArtifactOpenOptions& options :
       {util::ArtifactOpenOptions{}, mapped}) {
    auto loaded = MergeTable::Load(golden, store, options);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    ASSERT_EQ(loaded->num_items(), recorded.size());
    for (size_t i = 0; i < recorded.size(); ++i) {
      EXPECT_EQ(loaded->members(i), recorded[i]) << "item " << i;
    }
  }
  EXPECT_EQ(MergeTable::Load(golden, store_of_width(8)).status().code(),
            util::StatusCode::kInvalidArgument);

  auto loaded = MergeTable::Load(golden, store);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const std::string resaved =
      ::testing::TempDir() + "multiem_core_golden_spill_resave.mem";
  ASSERT_TRUE(loaded->Save(resaved).ok());
  EXPECT_EQ(SpillSection(resaved, "items"), SpillSection(golden, "items"));
  std::filesystem::remove(resaved);
}

TEST(EntityEmbeddingStoreTest, RowLookupAcrossSources) {
  EntityEmbeddingStore store;
  store.AddSource(UnitAxisVectors(2, 4));
  store.AddSource(UnitAxisVectors(3, 4));
  EXPECT_EQ(store.num_sources(), 2u);
  EXPECT_EQ(store.dim(), 4u);
  EXPECT_FLOAT_EQ(store.Row(EntityId(1, 2))[2], 1.0f);
  EXPECT_EQ(store.SizeBytes(), (2 + 3) * 4 * sizeof(float));
}

// ----------------------------------------------------- AttributeSelector --

// Builds music-like tables where `title` is informative and `id` is random
// noise; the selector must keep title and reject id.
std::vector<table::Table> NoisyIdTables(size_t rows_per_source) {
  util::Rng rng(3);
  std::vector<std::string> titles = {
      "silent golden river", "crimson harbor nights", "electric meadow dance",
      "frozen lantern waltz", "wandering ember song",  "velvet horizon tale",
      "broken compass blues", "shining feather hymn"};
  std::vector<table::Table> tables;
  for (int s = 0; s < 2; ++s) {
    table::Table t("s" + std::to_string(s), table::Schema({"id", "title"}));
    for (size_t r = 0; r < rows_per_source; ++r) {
      std::string id = "x";
      for (int c = 0; c < 8; ++c) {
        id += static_cast<char>('0' + rng.NextBounded(10));
      }
      t.AppendRow({id, titles[r % titles.size()]}).CheckOk();
    }
    tables.push_back(std::move(t));
  }
  return tables;
}

TEST(AttributeSelectorTest, KeepsInformativeRejectsNoise) {
  auto tables = NoisyIdTables(64);
  embed::HashingSentenceEncoder encoder;
  std::vector<std::string> corpus;
  for (const auto& t : tables) {
    auto texts = embed::SerializeTable(t);
    corpus.insert(corpus.end(), texts.begin(), texts.end());
  }
  encoder.FitFrequencies(corpus);
  MultiEmConfig config;
  config.gamma = 0.9;
  config.sample_ratio = 1.0;
  AttributeSelector selector(&encoder, config);
  auto result = selector.Run(tables);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->selected_columns.size(), 1u);
  EXPECT_EQ(result->selected_names[0], "title");
  // Shuffling the title displaces embeddings more than shuffling the id.
  EXPECT_LT(result->shuffle_similarity[1], result->shuffle_similarity[0]);
}

TEST(AttributeSelectorTest, FallbackKeepsAllWhenNothingPasses) {
  auto tables = NoisyIdTables(32);
  embed::HashingSentenceEncoder encoder;
  encoder.FitFrequencies({});
  MultiEmConfig config;
  config.gamma = 0.0001;  // nothing can pass a near-zero threshold
  config.sample_ratio = 1.0;
  AttributeSelector selector(&encoder, config);
  auto result = selector.Run(tables);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->selected_columns.size(), 2u);
}

// The per-column scoring loop fans out across the pool; the selection (and
// the exact similarity scores) must not depend on the thread count, because
// the column shuffles are all drawn from the rng stream before the fan-out.
TEST(AttributeSelectorTest, SelectionInvariantAcrossThreadCounts) {
  auto tables = NoisyIdTables(48);
  embed::HashingSentenceEncoder encoder;
  std::vector<std::string> corpus;
  for (const auto& t : tables) {
    auto texts = embed::SerializeTable(t);
    corpus.insert(corpus.end(), texts.begin(), texts.end());
  }
  encoder.FitFrequencies(corpus);
  MultiEmConfig config;
  config.sample_ratio = 1.0;
  config.seed = 11;
  AttributeSelector selector(&encoder, config);
  auto serial = selector.Run(tables, /*pool=*/nullptr);
  ASSERT_TRUE(serial.ok());
  for (size_t threads : {2, 4, 7}) {
    util::ThreadPool pool(threads);
    auto parallel = selector.Run(tables, &pool);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(parallel->selected_columns, serial->selected_columns)
        << threads << " threads";
    EXPECT_EQ(parallel->shuffle_similarity, serial->shuffle_similarity)
        << threads << " threads";
  }
}

TEST(AttributeSelectorTest, DeterministicGivenSeed) {
  auto tables = NoisyIdTables(48);
  embed::HashingSentenceEncoder encoder;
  MultiEmConfig config;
  config.sample_ratio = 0.5;
  config.seed = 7;
  AttributeSelector selector(&encoder, config);
  auto a = selector.Run(tables);
  auto b = selector.Run(tables);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->selected_columns, b->selected_columns);
  EXPECT_EQ(a->shuffle_similarity, b->shuffle_similarity);
}

// The registry's index factory for `config` — what the pipeline resolves.
std::unique_ptr<ann::VectorIndexFactory> FactoryFor(
    const MultiEmConfig& config) {
  auto factory = IndexFactories().Create(config.index_name, config);
  factory.status().CheckOk();
  return std::move(*factory);
}

// ------------------------------------------------------- TwoTableMerger --

TEST(TwoTableMergerTest, MergesIdenticalRowsKeepsRest) {
  constexpr size_t kN = 6;
  constexpr size_t kDim = 16;
  EntityEmbeddingStore store = PairedStore(kN, kDim);
  MergeTable a = MergeTable::FromSource(store, 0);
  MergeTable b = MergeTable::FromSource(store, 1);

  MultiEmConfig config;
  config.m = 0.1f;
  config.index_name = "brute_force";
  const auto factory = FactoryFor(config);
  TwoTableMerger merger(config, &store, *factory);
  MergeNodeStats stats;
  MergeTable merged = merger.Merge(a, b, nullptr, &stats);

  // All kN rows match pairwise: kN merged items, none carried.
  EXPECT_EQ(stats.mutual_pairs, kN);
  EXPECT_EQ(stats.merged_items, kN);
  EXPECT_EQ(stats.carried_items, 0u);
  EXPECT_EQ(merged.num_items(), kN);
  for (size_t i = 0; i < merged.num_items(); ++i) {
    const std::vector<EntityId>& members = merged.members(i);
    ASSERT_EQ(members.size(), 2u);
    EXPECT_EQ(members[0].source(), 0u);
    EXPECT_EQ(members[1].source(), 1u);
    EXPECT_EQ(members[0].row(), members[1].row());
  }
}

// Counts the indexes it creates; each is an exact BruteForceIndex.
class CountingFactory : public ann::VectorIndexFactory {
 public:
  std::unique_ptr<ann::VectorIndex> Create(size_t dim,
                                           ann::Metric metric) const override {
    ++creations;
    return std::make_unique<ann::BruteForceIndex>(dim, metric);
  }
  mutable size_t creations = 0;
};

TEST(TwoTableMergerTest, HybridScansBelowTheRuleAndBuildsIndexesAbove) {
  // hnsw_m 2 and ef_construction 1 price an index build at
  // kHybridScanFactor * 2 = 8 distances per row: an n x n merge scans iff
  // n * n <= 8 * 2n, that is n <= 16.
  MultiEmConfig config;
  config.m = 0.1f;
  config.hnsw_m = 2;
  config.hnsw_ef_construction = 1;
  ASSERT_EQ(config.index_name, "hybrid");
  ASSERT_EQ(MutualOptionsFromConfig(config).exact_scan_budget,
            kHybridScanFactor * 2.0);
  for (size_t n : {16u, 17u}) {
    EntityEmbeddingStore store = PairedStore(n, 32);
    MergeTable a = MergeTable::FromSource(store, 0);
    MergeTable b = MergeTable::FromSource(store, 1);
    CountingFactory factory;
    MergeNodeStats stats;
    TwoTableMerger(config, &store, factory).Merge(a, b, nullptr, &stats);
    EXPECT_EQ(factory.creations, n <= 16 ? 0u : 2u) << n << " x " << n;
    EXPECT_EQ(stats.mutual_pairs, n) << "both routes are exact here";
  }
}

TEST(TwoTableMergerTest, IndexNameDecidesTheRoute) {
  MultiEmConfig config;
  EXPECT_EQ(config.index_name, kDefaultIndexName);
  EXPECT_GT(MutualOptionsFromConfig(config).exact_scan_budget, 0.0);
  config.index_name = kHnswIndexName;
  EXPECT_EQ(MutualOptionsFromConfig(config).exact_scan_budget, 0.0);
  config.index_name = kBruteForceIndexName;
  EXPECT_EQ(MutualOptionsFromConfig(config).exact_scan_budget,
            ann::kAlwaysScan);
  config.quantization = "int8";  // the scan is fp32 only
  EXPECT_EQ(MutualOptionsFromConfig(config).exact_scan_budget, 0.0);
  config.index_name = kHybridIndexName;
  EXPECT_EQ(MutualOptionsFromConfig(config).exact_scan_budget, 0.0);
  config.quantization = "none";
  config.index_name = "a-registered-custom-index";
  EXPECT_EQ(MutualOptionsFromConfig(config).exact_scan_budget, 0.0);
}

TEST(TwoTableMergerTest, NoMatchesCarriesEverything) {
  EntityEmbeddingStore store;
  store.AddSource(UnitAxisVectors(3, 16));
  // Second source uses disjoint axes 8..10.
  embed::EmbeddingMatrix other(3, 16);
  for (size_t i = 0; i < 3; ++i) other.Row(i)[8 + i] = 1.0f;
  store.AddSource(other);
  MergeTable a = MergeTable::FromSource(store, 0);
  MergeTable b = MergeTable::FromSource(store, 1);

  MultiEmConfig config;
  config.m = 0.1f;
  config.index_name = "brute_force";
  const auto factory = FactoryFor(config);
  TwoTableMerger merger(config, &store, *factory);
  MergeNodeStats stats;
  MergeTable merged = merger.Merge(a, b, nullptr, &stats);
  EXPECT_EQ(stats.mutual_pairs, 0u);
  EXPECT_EQ(merged.num_items(), 6u);
  EXPECT_EQ(merged.TotalMembers(), 6u);
}

TEST(TwoTableMergerTest, CentroidIsNormalizedMeanOfMembers) {
  EntityEmbeddingStore store = PairedStore(2, 8);
  MergeTable a = MergeTable::FromSource(store, 0);
  MergeTable b = MergeTable::FromSource(store, 1);
  MultiEmConfig config;
  config.m = 0.1f;
  config.index_name = "brute_force";
  const auto factory = FactoryFor(config);
  TwoTableMerger merger(config, &store, *factory);
  MergeTable merged = merger.Merge(a, b);
  const embed::EmbeddingMatrix vectors = merged.GatherVectors(store);
  std::vector<float> centroid(8);
  for (size_t i = 0; i < merged.num_items(); ++i) {
    // Members are identical vectors, so the centroid equals the member.
    auto row = vectors.Row(i);
    EXPECT_NEAR(embed::Norm(row), 1.0f, 1e-5);
    auto member = store.Row(merged.members(i)[0]);
    EXPECT_NEAR(embed::CosineSimilarity(row, member), 1.0f, 1e-5);
    ASSERT_EQ(merged.members(i).size(), 2u);
    store.Centroid(merged.members(i), centroid);
    EXPECT_EQ(0, std::memcmp(row.data(), centroid.data(),
                             centroid.size() * sizeof(float)));
  }
}

// Four seeded sources of noisy copies of shared entities, plus entities of
// their own: merged items meet carried multi-member items at later levels.
EntityEmbeddingStore NoisyCopiesStore(size_t dim) {
  constexpr size_t kShared = 60;
  constexpr size_t kOwn = 20;
  util::Rng rng(17);
  auto unit = [&](std::span<float> v) {
    for (float& x : v) x = static_cast<float>(rng.Normal());
    embed::L2NormalizeInPlace(v);
  };
  embed::EmbeddingMatrix entities(kShared, dim);
  for (size_t e = 0; e < kShared; ++e) unit(entities.Row(e));
  EntityEmbeddingStore store;
  for (size_t s = 0; s < 4; ++s) {
    embed::EmbeddingMatrix rows(kShared + kOwn, dim);
    for (size_t r = 0; r < kShared + kOwn; ++r) {
      std::span<float> row = rows.Row(r);
      unit(row);
      if (r >= kShared) continue;  // an entity of this source alone
      const std::span<const float> e = entities.Row((r * 7 + s) % kShared);
      for (size_t d = 0; d < dim; ++d) row[d] = e[d] + 0.2f * row[d];
      embed::L2NormalizeInPlace(row);
    }
    store.AddSource(std::move(rows));
  }
  return store;
}

// A v1 spill's "embeddings" rows are never read back: a load keeps the
// member lists, and a merge derives every vector from the store. So a v1
// spill whose rows all lie on one axis merges to the same member lists and
// tuples as the v2 spill Save writes, heap-opened or mapped.
TEST(TwoTableMergerTest, SpillMergesFromItsMembersNotItsRows) {
  constexpr size_t kDim = 32;
  const EntityEmbeddingStore store = NoisyCopiesStore(kDim);
  MultiEmConfig config;
  config.k = 2;
  config.m = 0.3f;
  const auto factory = FactoryFor(config);
  const TwoTableMerger merger(config, &store, *factory);
  const MergeTable left = merger.Merge(MergeTable::FromSource(store, 0),
                                       MergeTable::FromSource(store, 1));
  const MergeTable right = merger.Merge(MergeTable::FromSource(store, 2),
                                        MergeTable::FromSource(store, 3));

  const std::string dir = ::testing::TempDir() + "multiem_core_spill_rows";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string untouched = dir + "/untouched.mem";
  const std::string overwritten = dir + "/overwritten.mem";
  ASSERT_TRUE(left.Save(untouched).ok());
  {
    // The saved member lists, plus v1 rows that are each the first axis:
    // were the rows read, every left item would look alike.
    std::vector<std::vector<EntityId>> items;
    for (size_t i = 0; i < left.num_items(); ++i) {
      items.push_back(left.members(i));
    }
    embed::EmbeddingMatrix rows(left.num_items(), kDim);
    for (size_t i = 0; i < rows.num_rows(); ++i) rows.Row(i)[0] = 1.0f;
    WriteRawSpill(overwritten, items, rows);
    EXPECT_EQ(SpillSection(overwritten, "items"),
              SpillSection(untouched, "items"));
  }

  const MergeTable want = merger.Merge(left, right);
  const DensityPruner pruner(config);
  PruneContext ctx;
  ctx.store = &store;
  const std::vector<eval::Tuple> want_tuples =
      pruner.Prune(want, ctx, nullptr);
  ASSERT_FALSE(want_tuples.empty());
  size_t multi_member = 0;
  for (size_t i = 0; i < left.num_items(); ++i) {
    multi_member += left.members(i).size() >= 2 ? 1 : 0;
  }
  ASSERT_GT(multi_member, 0u);

  util::ArtifactOpenOptions mapped;
  mapped.mapping = util::ArtifactOpenOptions::Mapping::kPrefer;
  for (const std::string& path : {untouched, overwritten}) {
    for (const util::ArtifactOpenOptions& options :
         {util::ArtifactOpenOptions{}, mapped}) {
      auto loaded = MergeTable::Load(path, store, options);
      ASSERT_TRUE(loaded.ok()) << path << ": " << loaded.status();
      ExpectSameTable(left, *loaded, store);
      const MergeTable got = merger.Merge(*loaded, right);
      ExpectSameTable(want, got, store);
      EXPECT_EQ(want_tuples, pruner.Prune(got, ctx, nullptr)) << path;
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(TwoTableMergerTest, DistanceCapBlocksWeakMatches) {
  // Two sources with moderately similar (not identical) vectors.
  EntityEmbeddingStore store;
  embed::EmbeddingMatrix sa(1, 4);
  sa.Row(0)[0] = 1.0f;
  embed::EmbeddingMatrix sb(1, 4);
  sb.Row(0)[0] = 0.8f;
  sb.Row(0)[1] = 0.6f;  // cosine sim 0.8 -> distance 0.2
  store.AddSource(sa);
  store.AddSource(sb);
  MergeTable a = MergeTable::FromSource(store, 0);
  MergeTable b = MergeTable::FromSource(store, 1);
  MultiEmConfig config;
  config.index_name = "brute_force";
  config.m = 0.1f;  // cap below the 0.2 distance
  const auto factory = FactoryFor(config);
  TwoTableMerger strict(config, &store, *factory);
  EXPECT_EQ(strict.Merge(a, b).num_items(), 2u);
  config.m = 0.35f;  // cap above
  TwoTableMerger loose(config, &store, *factory);
  EXPECT_EQ(loose.Merge(a, b).num_items(), 1u);
}

// ----------------------------------------------------- ExecuteMergePlan --

// Builds S sources of n entities each where row i across all sources share
// the same direction (all should merge into n tuples of size S).
EntityEmbeddingStore ManySourceStore(size_t sources, size_t n, size_t dim) {
  EntityEmbeddingStore store;
  for (size_t s = 0; s < sources; ++s) {
    store.AddSource(UnitAxisVectors(n, dim));
  }
  return store;
}

// One resident handle per source of `store`, in source order.
std::vector<MergeSource> SourceSlots(const EntityEmbeddingStore& store) {
  std::vector<MergeSource> slots;
  for (size_t s = 0; s < store.num_sources(); ++s) {
    slots.push_back(MergeSource::FromTable(
        MergeTable::FromSource(store, static_cast<uint32_t>(s))));
  }
  return slots;
}

// Runs the whole plan over every source of `store` and returns the
// integrated table. A null `factory` means the registry's for `config`.
MergeTable MergeAll(const MultiEmConfig& config,
                    const EntityEmbeddingStore& store,
                    const MergeExecOptions& options = {},
                    util::ThreadPool* pool = nullptr,
                    MergeStats* stats = nullptr,
                    const ann::VectorIndexFactory* factory = nullptr) {
  const MergePlan plan = MergePlan::Build(store.num_sources(), config.seed);
  std::vector<MergeSource> slots = SourceSlots(store);
  const std::unique_ptr<ann::VectorIndexFactory> resolved = FactoryFor(config);
  const TwoTableMerger merger(config, &store,
                              factory != nullptr ? *factory : *resolved);
  ExecuteMergePlan(plan, slots, merger, options, pool, stats).CheckOk();
  auto merged = slots[plan.root()].Acquire(store);
  merged.status().CheckOk();
  return std::move(*merged);
}

TEST(ExecuteMergePlanTest, MergesAllSourcesToFullTuples) {
  constexpr size_t kSources = 4;
  constexpr size_t kN = 5;
  EntityEmbeddingStore store = ManySourceStore(kSources, kN, 16);
  MultiEmConfig config;
  config.m = 0.1f;
  config.index_name = "brute_force";
  MergeStats stats;
  MergeTable integrated = MergeAll(config, store, {}, nullptr, &stats);

  EXPECT_EQ(integrated.num_items(), kN);
  for (size_t i = 0; i < integrated.num_items(); ++i) {
    EXPECT_EQ(integrated.members(i).size(), kSources);
  }
  // ceil(log2(4)) = 2 levels.
  EXPECT_EQ(stats.levels.size(), 2u);
  EXPECT_EQ(stats.levels[0].tables_in, 4u);
  EXPECT_EQ(stats.levels[0].pairs_merged, 2u);
  EXPECT_EQ(stats.nodes.size(), 3u);
  EXPECT_GT(stats.total_mutual_pairs, 0u);
  EXPECT_EQ(stats.spill_files_written, 0u);  // resident run
}

// Brute-force index that records which threads ran searches, so a test can
// see where the scheduler actually placed the inner ANN work.
class ThreadRecordingIndex : public ann::VectorIndex {
 public:
  ThreadRecordingIndex(size_t dim, ann::Metric metric, std::mutex* mu,
                       std::set<std::thread::id>* ids)
      : inner_(dim, metric), mu_(mu), ids_(ids) {}

  void Add(std::span<const float> vec) override { inner_.Add(vec); }

  std::vector<ann::Neighbor> Search(std::span<const float> query,
                                    size_t k) const override {
    {
      std::lock_guard<std::mutex> lock(*mu_);
      ids_->insert(std::this_thread::get_id());
    }
    // Brief sleep so other workers get scheduled even on a loaded (or
    // single-core) machine, keeping the thread-diversity assertion robust.
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    return inner_.Search(query, k);
  }

  size_t size() const override { return inner_.size(); }
  size_t SizeBytes() const override { return inner_.SizeBytes(); }
  ann::Metric metric() const override { return inner_.metric(); }

 private:
  ann::BruteForceIndex inner_;
  std::mutex* mu_;
  std::set<std::thread::id>* ids_;
};

class ThreadRecordingFactory : public ann::VectorIndexFactory {
 public:
  std::unique_ptr<ann::VectorIndex> Create(
      size_t dim, ann::Metric metric) const override {
    return std::make_unique<ThreadRecordingIndex>(dim, metric, &mu_, &ids_);
  }
  size_t NumThreadsSeen() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ids_.size();
  }

 private:
  mutable std::mutex mu_;
  mutable std::set<std::thread::id> ids_;
};

TEST(ExecuteMergePlanTest, TwoTableParallelModeFansOutInnerSearches) {
  // Regression for the serial final merge levels: in parallel mode a
  // single-pair level (the 2-table case — and the last levels of every
  // hierarchy) used to hand the inner merge a nullptr pool, so the whole
  // MutualTopK ran on the caller thread. The inner searches must fan out
  // onto the pool workers.
  constexpr size_t kN = 128;
  constexpr size_t kDim = 16;
  util::Rng rng(99);
  EntityEmbeddingStore store;
  for (int s = 0; s < 2; ++s) {
    embed::EmbeddingMatrix m(kN, kDim);
    for (size_t i = 0; i < kN; ++i) {
      auto row = m.Row(i);
      for (auto& x : row) x = static_cast<float>(rng.Normal());
      embed::L2NormalizeInPlace(row);
    }
    store.AddSource(std::move(m));
  }

  MultiEmConfig config;
  config.m = 0.5f;
  config.num_threads = 4;
  // The subject is the index route: under the default "hybrid" a merge this
  // small scans exactly and never calls the factory.
  config.index_name = "hnsw";
  ThreadRecordingFactory factory;
  util::ThreadPool pool(4);
  MergeTable integrated =
      MergeAll(config, store, {}, &pool, nullptr, &factory);

  EXPECT_GT(integrated.num_items(), 0u);
  // 2 x kN searches, split into blocks: more than one thread must have
  // executed them (pre-fix every search ran on the one calling thread).
  EXPECT_GE(factory.NumThreadsSeen(), 2u);
}

TEST(ExecuteMergePlanTest, OddTableCountCarriesLeftover) {
  constexpr size_t kSources = 5;
  EntityEmbeddingStore store = ManySourceStore(kSources, 3, 16);
  MultiEmConfig config;
  config.m = 0.1f;
  config.index_name = "brute_force";
  MergeStats stats;
  MergeTable integrated = MergeAll(config, store, {}, nullptr, &stats);
  EXPECT_EQ(integrated.num_items(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(integrated.members(i).size(), kSources);
  }
  // 5 -> 3 -> 2 -> 1: three levels.
  EXPECT_EQ(stats.levels.size(), 3u);
}

TEST(ExecuteMergePlanTest, NoEntityAppearsTwice) {
  EntityEmbeddingStore store = ManySourceStore(4, 6, 16);
  MultiEmConfig config;
  config.m = 0.35f;
  config.index_name = "brute_force";
  MergeTable integrated = MergeAll(config, store);
  std::set<uint64_t> seen;
  for (size_t i = 0; i < integrated.num_items(); ++i) {
    for (EntityId id : integrated.members(i)) {
      EXPECT_TRUE(seen.insert(id.packed()).second)
          << "entity " << id.ToString() << " in two items";
    }
  }
  EXPECT_EQ(seen.size(), 24u);  // every input entity survives somewhere
}

TEST(ExecuteMergePlanTest, TrivialInputs) {
  EntityEmbeddingStore store = ManySourceStore(1, 3, 8);
  MultiEmConfig config;
  const auto factory = FactoryFor(config);
  const TwoTableMerger merger(config, &store, *factory);
  std::vector<MergeSource> none;
  EXPECT_TRUE(
      ExecuteMergePlan(MergePlan::Build(0, config.seed), none, merger, {})
          .ok());
  // One table: the root is the leaf itself, handed back untouched.
  const MergePlan plan = MergePlan::Build(1, config.seed);
  std::vector<MergeSource> one = SourceSlots(store);
  ASSERT_TRUE(ExecuteMergePlan(plan, one, merger, {}).ok());
  auto table = one[plan.root()].Acquire(store);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_items(), 3u);
}

// Every option set runs the same plan: resident sequential, resident
// parallel, and spilled execution all give the same table bit for bit.
TEST(ExecuteMergePlanTest, OptionsDoNotChangeTheResult) {
  EntityEmbeddingStore store = ManySourceStore(7, 12, 16);
  MultiEmConfig config;
  config.m = 0.35f;
  config.index_name = "brute_force";
  const MergeTable sequential = MergeAll(config, store);

  util::ThreadPool pool(3);
  ExpectSameTable(sequential, MergeAll(config, store, {}, &pool), store);

  const std::string dir = ::testing::TempDir() + "multiem_core_spill";
  std::filesystem::remove_all(dir);
  MergeStats stats;
  ExpectSameTable(sequential,
                  MergeAll(config, store, MergeExecOptions::Spilled(dir),
                           nullptr, &stats),
                  store);
  // 7 spilled inputs plus 6 spilled merge outputs.
  EXPECT_EQ(stats.spill_files_written, 13u);
  EXPECT_GT(stats.spill_bytes_written, 0u);
  EXPECT_GT(stats.peak_resident_bytes, 0u);
  std::filesystem::remove_all(dir);
}

// Targets stop execution at chosen nodes; a later call over the same slots
// finishes the plan from them — the split the shard workers and the
// coordinator make across processes.
TEST(ExecuteMergePlanTest, TargetsSplitThePlan) {
  EntityEmbeddingStore store = ManySourceStore(6, 8, 16);
  MultiEmConfig config;
  config.m = 0.35f;
  config.index_name = "brute_force";
  const MergeTable whole = MergeAll(config, store);

  const MergePlan plan = MergePlan::Build(6, config.seed);
  const auto factory = FactoryFor(config);
  const TwoTableMerger merger(config, &store, *factory);
  std::vector<MergeSource> slots = SourceSlots(store);
  MergeExecOptions bottom;
  bottom.targets = plan.levels()[0].pair_nodes;
  MergeStats stats;
  ASSERT_TRUE(ExecuteMergePlan(plan, slots, merger, bottom, nullptr, &stats)
                  .ok());
  EXPECT_EQ(stats.nodes.size(), 3u);
  for (size_t id : bottom.targets) EXPECT_FALSE(slots[id].empty());
  EXPECT_TRUE(slots[plan.root()].empty());

  ASSERT_TRUE(ExecuteMergePlan(plan, slots, merger, {}, nullptr, &stats).ok());
  EXPECT_EQ(stats.nodes.size(), 5u);  // 6 leaves need 5 merges in total
  size_t pairs = 0;
  for (const MergeLevelProgress& level : stats.levels) {
    pairs += level.pairs_merged;
  }
  EXPECT_EQ(pairs, 5u);
  auto table = slots[plan.root()].Acquire(store);
  ASSERT_TRUE(table.ok());
  ExpectSameTable(whole, *table, store);
}

TEST(ExecuteMergePlanTest, RejectsBadSlotsAndTargets) {
  EntityEmbeddingStore store = ManySourceStore(4, 3, 8);
  MultiEmConfig config;
  const auto factory = FactoryFor(config);
  const TwoTableMerger merger(config, &store, *factory);
  const MergePlan plan = MergePlan::Build(4, config.seed);

  std::vector<MergeSource> too_few = SourceSlots(store);
  too_few.pop_back();
  EXPECT_EQ(ExecuteMergePlan(plan, too_few, merger, {}).code(),
            util::StatusCode::kInvalidArgument);

  std::vector<MergeSource> slots = SourceSlots(store);
  MergeExecOptions options;
  options.targets = {plan.num_nodes()};
  EXPECT_EQ(ExecuteMergePlan(plan, slots, merger, options).code(),
            util::StatusCode::kInvalidArgument);

  slots[0] = MergeSource();  // a leaf the plan needs but nobody supplied
  EXPECT_EQ(ExecuteMergePlan(plan, slots, merger, {}).code(),
            util::StatusCode::kFailedPrecondition);
}

// A spilled slot is loaded against the merger's store: a checksum-valid
// MEMMERGT file naming an entity the store lacks, or holding rows of another
// width, fails the run with InvalidArgument instead of a read past the
// store's rows — resident or spilled execution alike.
TEST(ExecuteMergePlanTest, RejectsSpillsTheStoreCannotDerive) {
  EntityEmbeddingStore store = ManySourceStore(4, 3, 8);
  MultiEmConfig config;
  const auto factory = FactoryFor(config);
  const TwoTableMerger merger(config, &store, *factory);
  const MergePlan plan = MergePlan::Build(4, config.seed);
  const std::string dir = ::testing::TempDir() + "multiem_core_foreign_leaf";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/leaf.mem";
  const struct {
    const char* what;
    std::vector<std::vector<EntityId>> items;
    embed::EmbeddingMatrix rows;
  } cases[] = {
      {"unknown entity",
       {{EntityId(0, 0)}, {EntityId(0, 1), EntityId(2, 1 << 20)}},
       UnitAxisVectors(2, 8)},
      {"narrower rows", {{EntityId(0, 0)}}, UnitAxisVectors(1, 4)},
  };
  for (const auto& c : cases) {
    for (bool spilled : {false, true}) {
      WriteRawSpill(path, c.items, c.rows);
      std::vector<MergeSource> slots = SourceSlots(store);
      slots[0] = MergeSource::FromSpill(path);
      const MergeExecOptions options =
          spilled ? MergeExecOptions::Spilled(dir + "/spill")
                  : MergeExecOptions{};
      EXPECT_EQ(ExecuteMergePlan(plan, slots, merger, options).code(),
                util::StatusCode::kInvalidArgument)
          << c.what << (spilled ? ", spilled" : ", resident");
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(ExecuteMergePlanTest, CancellationStopsBeforeTheNextLevel) {
  EntityEmbeddingStore store = ManySourceStore(4, 3, 8);
  MultiEmConfig config;
  const auto factory = FactoryFor(config);
  const TwoTableMerger merger(config, &store, *factory);
  const MergePlan plan = MergePlan::Build(4, config.seed);
  std::vector<MergeSource> slots = SourceSlots(store);
  CancellationToken cancel;
  cancel.Cancel();
  RunContext ctx;
  ctx.cancel = &cancel;
  MergeStats stats;
  EXPECT_EQ(
      ExecuteMergePlan(plan, slots, merger, {}, nullptr, &stats, ctx).code(),
      util::StatusCode::kCancelled);
  EXPECT_TRUE(stats.nodes.empty());
  EXPECT_FALSE(slots[0].empty());  // nothing was consumed
}

// -------------------------------------------------------- DensityPruner --

TEST(DensityPrunerTest, RemovesOutlierKeepsDensePart) {
  // One item with 3 near entities and 1 far entity (paper Figure 4).
  EntityEmbeddingStore store;
  embed::EmbeddingMatrix m(4, 4);
  m.Row(0)[0] = 1.0f;
  m.Row(1)[0] = 0.99f;
  m.Row(1)[1] = 0.14f;
  m.Row(2)[0] = 0.98f;
  m.Row(2)[1] = -0.2f;
  m.Row(3)[2] = 1.0f;  // orthogonal outlier (euclidean distance sqrt(2))
  for (size_t i = 0; i < 4; ++i) embed::L2NormalizeInPlace(m.Row(i));
  store.AddSource(m);

  MergeTable integrated;
  integrated.Append(
      {EntityId(0, 0), EntityId(0, 1), EntityId(0, 2), EntityId(0, 3)});

  MultiEmConfig config;
  config.eps = 1.0f;
  config.min_pts = 2;
  PruneContext ctx;
  ctx.store = &store;
  PruneStats stats;
  auto tuples = DensityPruner(config).Prune(integrated, ctx, &stats);
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_EQ(tuples[0].size(), 3u);
  EXPECT_EQ(stats.outliers_removed, 1u);
  EXPECT_EQ(stats.items_examined, 1u);
}

TEST(DensityPrunerTest, DropsItemsThatShrinkBelowTwo) {
  EntityEmbeddingStore store;
  embed::EmbeddingMatrix m(2, 4);
  m.Row(0)[0] = 1.0f;
  m.Row(1)[1] = 1.0f;  // orthogonal pair: euclidean distance sqrt(2) > eps
  store.AddSource(m);
  MergeTable integrated;
  integrated.Append({EntityId(0, 0), EntityId(0, 1)});

  MultiEmConfig config;
  config.eps = 1.0f;
  config.min_pts = 2;
  PruneContext ctx;
  ctx.store = &store;
  PruneStats stats;
  auto tuples = DensityPruner(config).Prune(integrated, ctx, &stats);
  EXPECT_TRUE(tuples.empty());
  EXPECT_EQ(stats.tuples_dropped, 1u);
}

TEST(DensityPrunerTest, DisabledPruningPassesThrough) {
  EntityEmbeddingStore store;
  embed::EmbeddingMatrix m(2, 4);
  m.Row(0)[0] = 1.0f;
  m.Row(1)[1] = 1.0f;
  store.AddSource(m);
  MergeTable integrated;
  integrated.Append({EntityId(0, 0), EntityId(0, 1)});

  MultiEmConfig config;
  config.enable_pruning = false;
  PruneContext ctx;
  ctx.store = &store;
  auto tuples = DensityPruner(config).Prune(integrated, ctx, nullptr);
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_EQ(tuples[0].size(), 2u);
}

TEST(DensityPrunerTest, SingletonItemsIgnored) {
  EntityEmbeddingStore store;
  embed::EmbeddingMatrix m(1, 4);
  m.Row(0)[0] = 1.0f;
  store.AddSource(m);
  MergeTable integrated;
  integrated.Append({EntityId(0, 0)});
  MultiEmConfig config;
  PruneContext ctx;
  ctx.store = &store;
  PruneStats stats;
  EXPECT_TRUE(DensityPruner(config).Prune(integrated, ctx, &stats).empty());
  EXPECT_EQ(stats.items_examined, 0u);
}

TEST(DensityPrunerTest, ParallelMatchesSerial) {
  util::Rng rng(13);
  EntityEmbeddingStore store;
  embed::EmbeddingMatrix m(60, 8);
  for (size_t i = 0; i < 60; ++i) {
    for (auto& x : m.Row(i)) x = static_cast<float>(rng.Normal());
    embed::L2NormalizeInPlace(m.Row(i));
  }
  store.AddSource(m);
  MergeTable integrated;
  for (size_t i = 0; i + 3 <= 60; i += 3) {
    integrated.Append({EntityId(0, i), EntityId(0, i + 1), EntityId(0, i + 2)});
  }
  MultiEmConfig config;
  config.eps = 1.0f;
  const DensityPruner pruner(config);
  PruneContext ctx;
  ctx.store = &store;
  auto serial = pruner.Prune(integrated, ctx, nullptr);
  util::ThreadPool pool(4);
  ctx.pool = &pool;
  auto parallel = pruner.Prune(integrated, ctx, nullptr);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]);
  }
}

}  // namespace
}  // namespace multiem::core
