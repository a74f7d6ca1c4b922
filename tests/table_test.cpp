// Unit tests for src/table: Schema, EntityId, Table operations, CSV I/O.

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "table/csv.h"
#include "table/entity_id.h"
#include "table/schema.h"
#include "table/table.h"
#include "util/rng.h"

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
  // The unterminated quote wins over the ragged record before it.
  auto ragged_first = ParseCsv("a,b\n1\n\"oops\n");
  ASSERT_FALSE(ragged_first.ok());
  EXPECT_EQ(ragged_first.status().message(), "CSV: unterminated quoted field");
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

TEST(CsvTest, ReadDirectoryIsInvalidArgumentNamingThePath) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "multiem_csv_dir_test";
  std::filesystem::create_directories(dir);
  auto read = ReadCsvFile(dir.string());
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(read.status().message().find(dir.string()), std::string::npos)
      << read.status();
  std::filesystem::remove(dir);
}

TEST(CsvTest, ReadsANonRegularFileToEof) {
  // A FIFO fed by a writer thread: the reader cannot size it up front.
  const std::filesystem::path fifo =
      std::filesystem::temp_directory_path() / "multiem_csv_fifo_test";
  std::filesystem::remove(fifo);
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  std::string text = "a,b\n";
  for (int r = 0; r < 20000; ++r) text += "x" + std::to_string(r) + ",y\n";
  std::thread writer([&] {
    std::ofstream out(fifo, std::ios::binary);
    out << text;
  });
  auto read = ReadCsvFile(fifo.string());
  writer.join();
  std::filesystem::remove(fifo);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->num_rows(), 20000u);
  EXPECT_EQ(read->cell(19999, 0), "x19999");
}

// The tokenizer ReadCsvFile used before its one-pass rewrite, kept as the
// reference: a char-by-char state machine into a vector of records, then
// the header and width checks over the finished vector.
util::Result<Table> ReferenceParseCsv(std::string_view text,
                                      const CsvOptions& options) {
  constexpr std::string_view kUtf8Bom = "\xEF\xBB\xBF";
  if (text.starts_with(kUtf8Bom)) text.remove_prefix(kUtf8Bom.size());
  const char delim = options.delimiter;
  std::vector<std::vector<std::string>> records;
  std::vector<std::string> current_record;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;
  size_t i = 0;
  auto end_field = [&] {
    current_record.push_back(std::move(field));
    field.clear();
    field_started = false;
  };
  auto end_record = [&] {
    end_field();
    records.push_back(std::move(current_record));
    current_record.clear();
  };
  while (i < text.size()) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          i += 2;
        } else {
          in_quotes = false;
          ++i;
        }
      } else {
        field += c;
        ++i;
      }
      continue;
    }
    if (c == '"' && !field_started) {
      in_quotes = true;
      field_started = true;
      ++i;
    } else if (c == delim) {
      end_field();
      ++i;
    } else if (c == '\r') {
      ++i;
    } else if (c == '\n') {
      end_record();
      ++i;
    } else {
      field += c;
      field_started = true;
      ++i;
    }
  }
  if (in_quotes) {
    return util::Status::InvalidArgument("CSV: unterminated quoted field");
  }
  if (!field.empty() || !current_record.empty() || field_started) {
    end_record();
  }
  if (records.empty()) {
    return util::Status::InvalidArgument("CSV: empty input");
  }
  size_t first_data_row = 0;
  Schema schema;
  if (options.has_header) {
    schema = Schema(records[0]);
    first_data_row = 1;
  } else {
    std::vector<std::string> names;
    for (size_t c = 0; c < records[0].size(); ++c) {
      names.push_back("col" + std::to_string(c));
    }
    schema = Schema(std::move(names));
  }
  Table out("csv", schema);
  for (size_t r = first_data_row; r < records.size(); ++r) {
    if (records[r].size() != schema.num_attributes()) {
      return util::Status::InvalidArgument(
          "CSV: record " + std::to_string(r) + " has " +
          std::to_string(records[r].size()) + " fields, expected " +
          std::to_string(schema.num_attributes()));
    }
    MULTIEM_RETURN_IF_ERROR(out.AppendRow(records[r]));
  }
  return out;
}

TEST(CsvTest, OnePassParserMatchesReferenceOnRandomInputs) {
  // Short strings over the bytes every branch of the tokenizer looks at,
  // plus the BOM's bytes, for both delimiters and both header modes.
  const std::string alphabet = "ab,;\"\r\n \xEF\xBB\xBF";
  util::Rng rng(2024);
  size_t cases = 0;
  size_t accepted = 0;
  for (int iter = 0; iter < 30000; ++iter) {
    std::string text;
    const size_t length = rng.NextBounded(14);
    if (rng.NextBounded(8) == 0) text = "\xEF\xBB\xBF";
    for (size_t c = 0; c < length; ++c) {
      text += alphabet[rng.NextBounded(alphabet.size())];
    }
    for (char delim : {',', ';'}) {
      for (bool has_header : {true, false}) {
        CsvOptions options;
        options.delimiter = delim;
        options.has_header = has_header;
        auto got = ParseCsv(text, options);
        auto want = ReferenceParseCsv(text, options);
        ++cases;
        ASSERT_EQ(got.ok(), want.ok()) << "input: " << testing::PrintToString(text);
        if (!want.ok()) {
          ASSERT_EQ(got.status().code(), want.status().code());
          ASSERT_EQ(got.status().message(), want.status().message())
              << "input: " << testing::PrintToString(text);
          continue;
        }
        ++accepted;
        ASSERT_EQ(got->schema(), want->schema())
            << "input: " << testing::PrintToString(text);
        ASSERT_EQ(got->num_rows(), want->num_rows());
        for (size_t r = 0; r < want->num_rows(); ++r) {
          ASSERT_EQ(got->row(r), want->row(r))
              << "input: " << testing::PrintToString(text);
        }
      }
    }
  }
  EXPECT_EQ(cases, 120000u);
  EXPECT_GT(accepted, cases / 10) << "too few inputs parse to say much";
}

}  // namespace
}  // namespace multiem::table
