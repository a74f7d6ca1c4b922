// Unit tests for src/table: Schema, EntityId, Table operations, CSV I/O.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "table/csv.h"
#include "table/entity_id.h"
#include "table/schema.h"
#include "table/table.h"

namespace multiem::table {
namespace {

Table MakeSmallTable() {
  Table t("demo", Schema({"title", "artist"}));
  t.AppendRow({"megna's", "tim o'brien"}).CheckOk();
  t.AppendRow({"chameleon", "herbie hancock"}).CheckOk();
  t.AppendRow({"blue in green", "miles davis"}).CheckOk();
  return t;
}

// ---------------------------------------------------------------- Schema --

TEST(SchemaTest, BasicAccessors) {
  Schema s({"a", "b", "c"});
  EXPECT_EQ(s.num_attributes(), 3u);
  EXPECT_EQ(s.name(1), "b");
  EXPECT_EQ(s.IndexOf("c"), 2u);
  EXPECT_FALSE(s.IndexOf("missing").has_value());
}

TEST(SchemaTest, Equality) {
  EXPECT_EQ(Schema({"a", "b"}), Schema({"a", "b"}));
  EXPECT_NE(Schema({"a", "b"}), Schema({"b", "a"}));
  EXPECT_NE(Schema({"a"}), Schema({"a", "b"}));
}

// -------------------------------------------------------------- EntityId --

TEST(EntityIdTest, PackUnpackRoundTrip) {
  EntityId id(3, 123456789);
  EXPECT_EQ(id.source(), 3u);
  EXPECT_EQ(id.row(), 123456789u);
}

TEST(EntityIdTest, LargeValues) {
  EntityId id(65535, (uint64_t{1} << 48) - 1);
  EXPECT_EQ(id.source(), 65535u);
  EXPECT_EQ(id.row(), (uint64_t{1} << 48) - 1);
}

TEST(EntityIdTest, OrderingIsSourceThenRow) {
  EXPECT_LT(EntityId(0, 99), EntityId(1, 0));
  EXPECT_LT(EntityId(1, 0), EntityId(1, 1));
  EXPECT_EQ(EntityId(2, 5), EntityId(2, 5));
  EXPECT_NE(EntityId(2, 5), EntityId(2, 6));
}

TEST(EntityIdTest, ToString) {
  EXPECT_EQ(EntityId(2, 17).ToString(), "S2:R17");
}

TEST(EntityIdTest, HashSpreads) {
  std::hash<EntityId> h;
  EXPECT_NE(h(EntityId(0, 1)), h(EntityId(1, 0)));
}

// ----------------------------------------------------------------- Table --

TEST(TableTest, AppendAndAccess) {
  Table t = MakeSmallTable();
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.num_columns(), 2u);
  EXPECT_EQ(t.cell(0, 0), "megna's");
  EXPECT_EQ(t.cell(2, 1), "miles davis");
}

TEST(TableTest, AppendRowRejectsWrongWidth) {
  Table t("t", Schema({"a", "b"}));
  util::Status s = t.AppendRow({"only one"});
  EXPECT_EQ(s.code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST(TableTest, ColumnExtraction) {
  Table t = MakeSmallTable();
  auto col = t.Column(1);
  ASSERT_EQ(col.size(), 3u);
  EXPECT_EQ(col[0], "tim o'brien");
}

TEST(TableTest, SetColumnReplaces) {
  Table t = MakeSmallTable();
  t.SetColumn(0, {"x", "y", "z"}).CheckOk();
  EXPECT_EQ(t.cell(1, 0), "y");
}

TEST(TableTest, SetColumnValidates) {
  Table t = MakeSmallTable();
  EXPECT_EQ(t.SetColumn(5, {"a", "b", "c"}).code(),
            util::StatusCode::kOutOfRange);
  EXPECT_EQ(t.SetColumn(0, {"a"}).code(), util::StatusCode::kInvalidArgument);
}

TEST(TableTest, ConcatMergesRows) {
  Table a = MakeSmallTable();
  Table b = MakeSmallTable();
  auto c = Concat({a, b});
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->num_rows(), 6u);
  EXPECT_EQ(c->cell(3, 0), "megna's");
}

TEST(TableTest, ConcatRejectsSchemaMismatch) {
  Table a = MakeSmallTable();
  Table b("other", Schema({"x"}));
  EXPECT_FALSE(Concat({a, b}).ok());
  EXPECT_FALSE(Concat({}).ok());
}

TEST(TableTest, SampleRowsRatio) {
  Table t("t", Schema({"v"}));
  for (int i = 0; i < 100; ++i) {
    t.AppendRow({std::to_string(i)}).CheckOk();
  }
  util::Rng rng(5);
  Table s = SampleRows(t, 0.25, rng);
  EXPECT_EQ(s.num_rows(), 25u);
  // Sampled rows preserve relative order (ascending values here).
  for (size_t i = 1; i < s.num_rows(); ++i) {
    EXPECT_LT(std::stoi(s.cell(i - 1, 0)), std::stoi(s.cell(i, 0)));
  }
}

TEST(TableTest, SampleRowsClampsRatio) {
  Table t = MakeSmallTable();
  util::Rng rng(5);
  EXPECT_EQ(SampleRows(t, 2.0, rng).num_rows(), 3u);
  EXPECT_EQ(SampleRows(t, 0.0, rng).num_rows(), 0u);
}

TEST(TableTest, ShuffleColumnPermutesOnlyThatColumn) {
  Table t("t", Schema({"a", "b"}));
  for (int i = 0; i < 50; ++i) {
    t.AppendRow({std::to_string(i), "fixed" + std::to_string(i)}).CheckOk();
  }
  util::Rng rng(9);
  Table shuffled = ShuffleColumn(t, 0, rng);
  // Column b untouched.
  for (size_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_EQ(shuffled.cell(r, 1), t.cell(r, 1));
  }
  // Column a is a permutation of the original.
  auto a = t.Column(0);
  auto b = shuffled.Column(0);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
  EXPECT_NE(shuffled.Column(0), t.Column(0));  // astronomically unlikely
}

TEST(TableTest, ProjectColumnsSelectsAndOrders) {
  Table t = MakeSmallTable();
  Table p = ProjectColumns(t, {1});
  EXPECT_EQ(p.num_columns(), 1u);
  EXPECT_EQ(p.schema().name(0), "artist");
  EXPECT_EQ(p.cell(0, 0), "tim o'brien");
  Table swapped = ProjectColumns(t, {1, 0});
  EXPECT_EQ(swapped.schema().name(0), "artist");
  EXPECT_EQ(swapped.cell(0, 1), "megna's");
}

// ------------------------------------------------------------------- CSV --

TEST(CsvTest, ParseSimple) {
  auto t = ParseCsv("a,b\n1,2\n3,4\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->schema().name(0), "a");
  EXPECT_EQ(t->cell(1, 1), "4");
}

TEST(CsvTest, ParseQuotedFields) {
  auto t = ParseCsv("name,desc\n\"smith, john\",\"he said \"\"hi\"\"\"\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->cell(0, 0), "smith, john");
  EXPECT_EQ(t->cell(0, 1), "he said \"hi\"");
}

TEST(CsvTest, ParseEmbeddedNewline) {
  auto t = ParseCsv("a,b\n\"line1\nline2\",x\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->cell(0, 0), "line1\nline2");
}

TEST(CsvTest, ParseCrLf) {
  auto t = ParseCsv("a,b\r\n1,2\r\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 1u);
  EXPECT_EQ(t->cell(0, 1), "2");
}

TEST(CsvTest, ParseNoTrailingNewline) {
  auto t = ParseCsv("a,b\n1,2");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 1u);
}

TEST(CsvTest, ParseRejectsRaggedRows) {
  EXPECT_FALSE(ParseCsv("a,b\n1\n").ok());
}

TEST(CsvTest, ParseRejectsUnterminatedQuote) {
  EXPECT_FALSE(ParseCsv("a\n\"oops\n").ok());
}

TEST(CsvTest, ParseNoHeader) {
  CsvOptions options;
  options.has_header = false;
  auto t = ParseCsv("1,2\n3,4\n", options);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->schema().name(0), "col0");
}

// A spreadsheet export's leading byte-order mark must not reach the first
// header name, or the source no longer shares the schema of BOM-less ones.
TEST(CsvTest, DropsLeadingUtf8Bom) {
  auto t = ParseCsv("\xEF\xBB\xBF" "a,b\n1,2\n");
  ASSERT_TRUE(t.ok()) << t.status();
  EXPECT_EQ(t->schema().name(0), "a");
  EXPECT_EQ(t->schema().names(), ParseCsv("a,b\n1,2\n")->schema().names());
  EXPECT_EQ(t->cell(0, 0), "1");
}

TEST(CsvTest, DropsLeadingUtf8BomWithoutHeader) {
  CsvOptions options;
  options.has_header = false;
  auto t = ParseCsv("\xEF\xBB\xBF" "1,2\n3,4\n", options);
  ASSERT_TRUE(t.ok()) << t.status();
  EXPECT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->cell(0, 0), "1");
}

TEST(CsvTest, KeepsBomBytesInsideFields) {
  auto t = ParseCsv("a,b\n\xEF\xBB\xBF" "x,y\xEF\xBB\xBF\n");
  ASSERT_TRUE(t.ok()) << t.status();
  EXPECT_EQ(t->cell(0, 0), "\xEF\xBB\xBF" "x");
  EXPECT_EQ(t->cell(0, 1), "y\xEF\xBB\xBF");
}

TEST(CsvTest, CustomDelimiter) {
  CsvOptions options;
  options.delimiter = '\t';
  auto t = ParseCsv("a\tb\n1\t2\n", options);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->cell(0, 1), "2");
}

TEST(CsvTest, RoundTripWithSpecialCharacters) {
  Table t("t", Schema({"name", "note"}));
  t.AppendRow({"a,b", "line\nbreak"}).CheckOk();
  t.AppendRow({"quote\"inside", "plain"}).CheckOk();
  auto parsed = ParseCsv(ToCsv(t));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->num_rows(), 2u);
  EXPECT_EQ(parsed->cell(0, 0), "a,b");
  EXPECT_EQ(parsed->cell(0, 1), "line\nbreak");
  EXPECT_EQ(parsed->cell(1, 0), "quote\"inside");
}

TEST(CsvTest, FileRoundTrip) {
  Table t = MakeSmallTable();
  std::string path =
      (std::filesystem::temp_directory_path() / "multiem_csv_test.csv")
          .string();
  WriteCsvFile(t, path).CheckOk();
  auto loaded = ReadCsvFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_rows(), 3u);
  EXPECT_EQ(loaded->cell(0, 0), "megna's");
  std::remove(path.c_str());
}

TEST(CsvTest, ReadMissingFileIsNotFound) {
  EXPECT_EQ(ReadCsvFile("/nonexistent/path.csv").status().code(),
            util::StatusCode::kNotFound);
}

}  // namespace
}  // namespace multiem::table
