// Tests for src/datagen: corruption model, assembler invariants, the four
// generators (schema fidelity, truth consistency, determinism), registry.

#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "datagen/corruption.h"
#include "datagen/datasets.h"
#include "datagen/geo.h"
#include "datagen/music.h"
#include "datagen/person.h"
#include "datagen/scale.h"
#include "datagen/shopee.h"
#include "datagen/vocab.h"
#include "util/string_util.h"

namespace multiem::datagen {
namespace {

// ----------------------------------------------------------------- Vocab --

TEST(VocabTest, BanksAreNonEmptyAndPickIsDeterministic) {
  EXPECT_FALSE(GivenNames().empty());
  EXPECT_FALSE(Surnames().empty());
  EXPECT_FALSE(Brands().empty());
  EXPECT_EQ(Languages().size(), 5u);
  util::Rng a(1);
  util::Rng b(1);
  EXPECT_EQ(Pick(Nouns(), a), Pick(Nouns(), b));
}

TEST(VocabTest, PickPhraseWordCount) {
  util::Rng rng(2);
  std::string phrase = PickPhrase(Adjectives(), 3, rng);
  EXPECT_EQ(util::SplitWhitespace(phrase).size(), 3u);
}

// ------------------------------------------------------------ Corruption --

TEST(CorruptionTest, TypoChangesAtMostOneEditStep) {
  util::Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    std::string corrupted = CorruptionModel::ApplyTypo("chameleon", rng);
    EXPECT_LE(util::EditDistance("chameleon", corrupted), 2u);
    EXPECT_FALSE(corrupted.empty());
  }
}

TEST(CorruptionTest, TypoLeavesShortTokensAlone) {
  util::Rng rng(3);
  EXPECT_EQ(CorruptionModel::ApplyTypo("a", rng), "a");
}

TEST(CorruptionTest, DigitCorruptionKeepsLengthAndDigits) {
  util::Rng rng(5);
  std::string out = CorruptionModel::CorruptDigits("2204", 1.0, rng);
  EXPECT_EQ(out.size(), 4u);
  EXPECT_TRUE(util::IsAllDigits(out));
  EXPECT_EQ(CorruptionModel::CorruptDigits("2204", 0.0, rng), "2204");
}

TEST(CorruptionTest, ZeroProbabilitiesAreIdentity) {
  CorruptionConfig config;
  config.typo_prob = 0;
  config.drop_token_prob = 0;
  config.swap_tokens_prob = 0;
  config.abbreviate_prob = 0;
  CorruptionModel model(config);
  util::Rng rng(7);
  EXPECT_EQ(model.CorruptText("apple iphone 8 plus", rng),
            "apple iphone 8 plus");
}

TEST(CorruptionTest, NeverDropsEverything) {
  CorruptionConfig config;
  config.drop_token_prob = 1.0;
  CorruptionModel model(config);
  util::Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(model.CorruptText("one two three", rng).empty());
  }
}

TEST(CorruptionTest, FillerAppends) {
  CorruptionConfig config;
  config.typo_prob = 0;
  config.drop_token_prob = 0;
  config.swap_tokens_prob = 0;
  config.abbreviate_prob = 0;
  config.filler_prob = 1.0;
  config.filler_words = {"promo"};
  CorruptionModel model(config);
  util::Rng rng(11);
  std::string out = model.CorruptText("item", rng);
  EXPECT_TRUE(out.find("promo") != std::string::npos);
}

// ------------------------------------------------------------- Assembler --

TEST(AssemblerTest, TruthSurvivesShuffling) {
  table::Schema schema({"v"});
  MultiSourceAssembler assembler(2, schema);
  // Entity 0 in both sources, entity 1 only in source 0.
  assembler.AddEntity({{0, {"alpha"}}, {1, {"alpha2"}}});
  assembler.AddEntity({{0, {"beta"}}});
  assembler.AddEntity({{0, {"gamma"}}, {1, {"gamma2"}}});
  util::Rng rng(13);
  MultiSourceBenchmark b = assembler.Finish("test", rng);

  EXPECT_EQ(b.tables.size(), 2u);
  EXPECT_EQ(b.truth.size(), 2u);  // alpha and gamma tuples
  // Each truth tuple's cells must agree modulo the suffix we planted.
  for (const auto& tuple : b.truth.tuples()) {
    ASSERT_EQ(tuple.size(), 2u);
    std::string v0(b.tables[tuple[0].source()].cell(tuple[0].row(), 0));
    std::string v1(b.tables[tuple[1].source()].cell(tuple[1].row(), 0));
    EXPECT_EQ(v0 + "2", v1);
  }
}

// ------------------------------------------------------------ Generators --

TEST(GeoTest, SchemaAndScale) {
  GeoConfig config;
  config.num_entities = 100;
  MultiSourceBenchmark b = GenerateGeo(config);
  EXPECT_EQ(b.tables.size(), 4u);
  EXPECT_EQ(b.NumAttributes(), 3u);
  EXPECT_EQ(b.tables[0].schema().name(0), "name");
  // ~93% presence over 4 sources -> ~3.7 copies per entity.
  EXPECT_GT(b.NumEntities(), 300u);
  EXPECT_LE(b.NumEntities(), 400u);
  EXPECT_GT(b.NumTuples(), 80u);
}

TEST(GeoTest, DeterministicAndSeedSensitive) {
  GeoConfig config;
  config.num_entities = 50;
  MultiSourceBenchmark a = GenerateGeo(config);
  MultiSourceBenchmark b = GenerateGeo(config);
  EXPECT_EQ(a.tables[0].cell(0, 0), b.tables[0].cell(0, 0));
  EXPECT_EQ(a.NumTuples(), b.NumTuples());
  config.seed = 999;
  MultiSourceBenchmark c = GenerateGeo(config);
  EXPECT_NE(a.tables[0].cell(0, 0), c.tables[0].cell(0, 0));
}

TEST(GeoTest, CoordinatesAreNumeric) {
  GeoConfig config;
  config.num_entities = 30;
  MultiSourceBenchmark b = GenerateGeo(config);
  for (const auto& t : b.tables) {
    for (size_t r = 0; r < t.num_rows(); ++r) {
      EXPECT_TRUE(util::LooksNumeric(t.cell(r, 1))) << t.cell(r, 1);
      EXPECT_TRUE(util::LooksNumeric(t.cell(r, 2))) << t.cell(r, 2);
    }
  }
}

TEST(MusicTest, SchemaMatchesTableVII) {
  MusicConfig config;
  config.num_entities = 40;
  MultiSourceBenchmark b = GenerateMusic(config);
  const table::Schema& s = b.tables[0].schema();
  ASSERT_EQ(s.num_attributes(), 8u);
  EXPECT_EQ(s.name(0), "id");
  EXPECT_EQ(s.name(2), "title");
  EXPECT_EQ(s.name(4), "artist");
  EXPECT_EQ(s.name(5), "album");
  EXPECT_EQ(s.name(7), "language");
  EXPECT_EQ(b.tables.size(), 5u);
}

TEST(MusicTest, IdsArePerSourceNoise) {
  MusicConfig config;
  config.num_entities = 60;
  MultiSourceBenchmark b = GenerateMusic(config);
  // ids must be (nearly) globally unique -> they cannot identify matches.
  std::unordered_set<std::string> ids;
  size_t total = 0;
  for (const auto& t : b.tables) {
    for (size_t r = 0; r < t.num_rows(); ++r) {
      ids.emplace(t.cell(r, 0));
      ++total;
    }
  }
  EXPECT_GT(ids.size(), total * 9 / 10);
}

TEST(MusicTest, AuxiliaryMetadataDisagreesAcrossSources) {
  // The MSCD property the EER ablation relies on: within a truth tuple the
  // auxiliary fields (number, length) frequently disagree between sources.
  MusicConfig config;
  config.num_entities = 120;
  MultiSourceBenchmark b = GenerateMusic(config);
  size_t tuples_with_conflict = 0;
  size_t tuples_total = 0;
  for (const auto& tuple : b.truth.tuples()) {
    ++tuples_total;
    std::set<std::string> lengths;
    for (auto id : tuple) {
      lengths.emplace(b.tables[id.source()].cell(id.row(), 3));
    }
    if (lengths.size() > 1) ++tuples_with_conflict;
  }
  ASSERT_GT(tuples_total, 0u);
  EXPECT_GT(tuples_with_conflict, tuples_total / 2);
}

TEST(MusicTest, YearsAreFourDigitNumbers) {
  MusicConfig config;
  config.num_entities = 40;
  MultiSourceBenchmark b = GenerateMusic(config);
  for (const auto& t : b.tables) {
    for (size_t r = 0; r < t.num_rows(); ++r) {
      EXPECT_EQ(t.cell(r, 6).size(), 4u);
      EXPECT_TRUE(util::IsAllDigits(t.cell(r, 6)));
    }
  }
}

TEST(PersonTest, SchemaAndPostcodeShape) {
  PersonConfig config;
  config.num_entities = 80;
  MultiSourceBenchmark b = GeneratePerson(config);
  EXPECT_EQ(b.tables.size(), 5u);
  ASSERT_EQ(b.NumAttributes(), 4u);
  EXPECT_EQ(b.tables[0].schema().name(3), "postcode");
  for (const auto& t : b.tables) {
    for (size_t r = 0; r < t.num_rows(); ++r) {
      EXPECT_TRUE(util::IsAllDigits(t.cell(r, 3)));
      EXPECT_EQ(t.cell(r, 3).size(), 4u);
    }
  }
}

TEST(PersonTest, TupleSizesBoundedBySources) {
  PersonConfig config;
  config.num_entities = 100;
  MultiSourceBenchmark b = GeneratePerson(config);
  for (const auto& tuple : b.truth.tuples()) {
    EXPECT_GE(tuple.size(), 2u);
    EXPECT_LE(tuple.size(), 5u);
  }
}

TEST(ShopeeTest, SingleAttributeTwentySources) {
  ShopeeConfig config;
  config.num_families = 100;
  MultiSourceBenchmark b = GenerateShopee(config);
  EXPECT_EQ(b.tables.size(), 20u);
  EXPECT_EQ(b.NumAttributes(), 1u);
  EXPECT_EQ(b.tables[0].schema().name(0), "title");
}

TEST(ShopeeTest, FamiliesProduceConfusableDistinctEntities) {
  ShopeeConfig config;
  config.num_families = 50;
  config.presence_prob = 0.3;
  MultiSourceBenchmark b = GenerateShopee(config);
  // More entities than families (variants) and a usable amount of truth.
  size_t total_rows = b.NumEntities();
  EXPECT_GT(total_rows, 0u);
  EXPECT_GT(b.NumTuples(), 10u);
}

// -------------------------------------------------------------- Registry --

TEST(RegistryTest, AllNamesResolve) {
  for (const std::string& name : DatasetNames()) {
    auto b = MakeDataset(name, /*scale=*/0.05);
    ASSERT_TRUE(b.ok()) << name;
    EXPECT_GE(b->tables.size(), 2u) << name;
    EXPECT_GT(b->NumEntities(), 0u) << name;
  }
}

TEST(RegistryTest, UnknownNameIsNotFound) {
  EXPECT_EQ(MakeDataset("bogus").status().code(),
            util::StatusCode::kNotFound);
}

TEST(RegistryTest, ScaleChangesSize) {
  auto small = MakeDataset("music-20", 0.05);
  auto large = MakeDataset("music-20", 0.2);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  EXPECT_LT(small->NumEntities(), large->NumEntities());
}

TEST(RegistryTest, TableIIIShapeMatches) {
  // Sources and attribute counts must match Table III exactly.
  struct Expected {
    const char* name;
    size_t sources;
    size_t attrs;
  };
  for (const Expected& e :
       {Expected{"geo", 4, 3}, Expected{"music-20", 5, 8},
        Expected{"person", 5, 4}, Expected{"shopee", 20, 1}}) {
    auto b = MakeDataset(e.name, 0.05);
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(b->NumSources(), e.sources) << e.name;
    EXPECT_EQ(b->NumAttributes(), e.attrs) << e.name;
  }
}

// Property sweep: every dataset's ground truth must be consistent with its
// tables (valid ids, >= 2 members, members from the emitted tables).
class DatasetInvariantSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(DatasetInvariantSweep, TruthIdsAreValid) {
  auto b = MakeDataset(GetParam(), 0.05);
  ASSERT_TRUE(b.ok());
  for (const auto& tuple : b->truth.tuples()) {
    EXPECT_GE(tuple.size(), 2u);
    for (auto id : tuple) {
      ASSERT_LT(id.source(), b->tables.size());
      ASSERT_LT(id.row(), b->tables[id.source()].num_rows());
    }
  }
}

TEST_P(DatasetInvariantSweep, NoEntityInTwoTruthTuples) {
  auto b = MakeDataset(GetParam(), 0.05);
  ASSERT_TRUE(b.ok());
  std::unordered_set<uint64_t> seen;
  for (const auto& tuple : b->truth.tuples()) {
    for (auto id : tuple) {
      EXPECT_TRUE(seen.insert(id.packed()).second);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, DatasetInvariantSweep,
                         ::testing::Values("geo", "music-20", "music-200",
                                           "person", "shopee"));

// ----------------------------------------------------- Streaming (scale) --

ScaleCorpusConfig SmallScaleConfig() {
  ScaleCorpusConfig config;
  config.seed = 9;
  config.num_sources = 3;
  config.rows_per_source = 200;
  config.overlap = 0.4;
  return config;
}

TEST(ScaleCorpusTest, ChunksAreOrderIndependent) {
  ScaleCorpusGenerator gen(SmallScaleConfig());
  table::Table whole = gen.MaterializeSource(1);
  ASSERT_EQ(whole.num_rows(), 200u);

  // Render the same source in odd-sized chunks, back-to-front, into a fresh
  // table per chunk; every cell must match the one-shot render.
  std::vector<std::pair<size_t, size_t>> chunks = {
      {128, 200}, {37, 128}, {0, 37}};
  for (auto [begin, end] : chunks) {
    table::Table part("part", gen.schema());
    gen.AppendRows(1, begin, end, &part);
    ASSERT_EQ(part.num_rows(), end - begin);
    for (size_t r = 0; r < part.num_rows(); ++r) {
      for (size_t c = 0; c < gen.schema().num_attributes(); ++c) {
        EXPECT_EQ(part.cell(r, c), whole.cell(begin + r, c))
            << "row " << begin + r << " col " << c;
      }
    }
  }
}

TEST(ScaleCorpusTest, DeterministicGivenSeedAndDistinctAcrossSeeds) {
  ScaleCorpusGenerator a(SmallScaleConfig());
  ScaleCorpusGenerator b(SmallScaleConfig());
  table::Table ta = a.MaterializeSource(0);
  table::Table tb = b.MaterializeSource(0);
  ASSERT_EQ(ta.num_rows(), tb.num_rows());
  for (size_t r = 0; r < ta.num_rows(); ++r) {
    EXPECT_EQ(ta.row(r), tb.row(r));
  }
  ScaleCorpusConfig other = SmallScaleConfig();
  other.seed = 10;
  table::Table tc = ScaleCorpusGenerator(other).MaterializeSource(0);
  size_t differing = 0;
  for (size_t r = 0; r < ta.num_rows(); ++r) {
    if (ta.cell(r, 0) != tc.cell(r, 0)) ++differing;
  }
  EXPECT_GT(differing, ta.num_rows() / 2);
}

TEST(ScaleCorpusTest, SharedPrefixOverlapsAcrossSourcesUniqueTailDoesNot) {
  ScaleCorpusGenerator gen(SmallScaleConfig());
  EXPECT_EQ(gen.shared_rows(), 80u);  // 0.4 * 200
  EXPECT_EQ(gen.total_rows(), 600u);
  table::Table s0 = gen.MaterializeSource(0);
  table::Table s1 = gen.MaterializeSource(1);

  // Shared rows render the same canonical entity per row index: identical
  // color (never corrupted) and a title that survives corruption with most
  // tokens intact is the realistic case — require at least identical color
  // and that the two titles differ from a random pairing's.
  size_t same_color = 0;
  for (size_t r = 0; r < gen.shared_rows(); ++r) {
    if (s0.cell(r, 1) == s1.cell(r, 1)) ++same_color;
  }
  EXPECT_EQ(same_color, gen.shared_rows());

  // Unique-tail rows are distinct entities; their colors agree only by
  // bank-collision chance, never systematically.
  size_t tail_same_title = 0;
  for (size_t r = gen.shared_rows(); r < gen.rows_per_source(); ++r) {
    if (s0.cell(r, 0) == s1.cell(r, 0)) ++tail_same_title;
  }
  EXPECT_EQ(tail_same_title, 0u);

  // The noise column is per-copy random: it must not agree even on shared
  // rows (it is what attribute selection should reject).
  size_t same_sku = 0;
  for (size_t r = 0; r < gen.shared_rows(); ++r) {
    if (s0.cell(r, 2) == s1.cell(r, 2)) ++same_sku;
  }
  EXPECT_EQ(same_sku, 0u);
}

}  // namespace
}  // namespace multiem::datagen
