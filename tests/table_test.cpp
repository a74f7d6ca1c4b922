// Unit tests for src/table: Schema, EntityId, Table operations, CSV I/O.

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

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
    EXPECT_LT(std::stoi(std::string(s.cell(i - 1, 0))),
              std::stoi(std::string(s.cell(i, 0))));
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

// A table whose cells differ in length, with empty ones, for the layout
// tests below: every cell sits in one buffer, so a wrong offset shows as a
// neighbour's bytes.
Table MakeRaggedTable(size_t rows) {
  Table t("ragged", Schema({"a", "b", "c"}));
  for (size_t r = 0; r < rows; ++r) {
    t.AppendRow({std::string(r % 4, 'a') + std::to_string(r),
                 r % 3 == 0 ? "" : "b" + std::to_string(r * r),
                 r % 5 == 0 ? "" : std::string(r % 7 + 1, 'c')})
        .CheckOk();
  }
  return t;
}

std::vector<std::vector<std::string>> Rows(const Table& t) {
  std::vector<std::vector<std::string>> out;
  for (size_t r = 0; r < t.num_rows(); ++r) out.push_back(t.row(r));
  return out;
}

TEST(TableTest, CopyKeepsItsCellsWhenTheOriginalChanges) {
  Table original = MakeRaggedTable(20);
  const Table copy = original;
  const auto before = Rows(copy);
  original.AppendRow({"appended", "", "row"}).CheckOk();
  EXPECT_EQ(Rows(copy), before);
  util::Rng rng(3);
  original = ShuffleColumn(original, 1, rng);
  EXPECT_EQ(Rows(copy), before);
  EXPECT_EQ(copy.num_rows(), 20u);
  EXPECT_EQ(original.num_rows(), 21u);
  EXPECT_EQ(original.cell(20, 0), "appended");
}

TEST(TableTest, TransformsMatchRowByRowBuilds) {
  const Table a = MakeRaggedTable(17);
  const Table b = MakeRaggedTable(9);
  const Table empty("empty", a.schema());

  auto concat = Concat({a, empty, b});
  ASSERT_TRUE(concat.ok());
  Table want_concat("want", a.schema());
  for (const Table* t : {&a, &b}) {
    for (size_t r = 0; r < t->num_rows(); ++r) {
      want_concat.AppendRow(t->row(r)).CheckOk();
    }
  }
  EXPECT_EQ(Rows(*concat), Rows(want_concat));

  for (double ratio : {0.0, 0.3, 1.0}) {
    util::Rng rng(11), same(11);
    const Table sample = SampleRows(a, ratio, rng);
    const size_t count = static_cast<size_t>(
        ratio * static_cast<double>(a.num_rows()) + 0.999999);
    std::vector<size_t> picked = same.SampleWithoutReplacement(
        a.num_rows(), std::min(count, a.num_rows()));
    std::sort(picked.begin(), picked.end());
    Table want("want", a.schema());
    for (size_t r : picked) want.AppendRow(a.row(r)).CheckOk();
    EXPECT_EQ(Rows(sample), Rows(want)) << "ratio " << ratio;
  }

  for (const std::vector<size_t>& columns :
       {std::vector<size_t>{2, 0}, std::vector<size_t>{1, 1, 1},
        std::vector<size_t>{}}) {
    const Table projected = ProjectColumns(a, columns);
    ASSERT_EQ(projected.num_rows(), a.num_rows());
    std::vector<std::string> names;
    for (size_t c : columns) names.push_back(a.schema().name(c));
    Table want("want", Schema(names));
    for (size_t r = 0; r < a.num_rows(); ++r) {
      std::vector<std::string> cells;
      for (size_t c : columns) cells.emplace_back(a.cell(r, c));
      want.AppendRow(cells).CheckOk();
    }
    EXPECT_EQ(projected.schema(), want.schema());
    EXPECT_EQ(Rows(projected), Rows(want));
  }

  // The shuffle must make the draws Rng::Shuffle of the column's values
  // makes: the attribute selector's choices, and so every tuple, hang on it.
  for (size_t col = 0; col < a.num_columns(); ++col) {
    util::Rng rng(9), same(9);
    const Table shuffled = ShuffleColumn(a, col, rng);
    std::vector<std::string> values = a.Column(col);
    same.Shuffle(values);
    Table want("want", a.schema());
    for (size_t r = 0; r < a.num_rows(); ++r) {
      std::vector<std::string> cells = a.row(r);
      cells[col] = values[r];
      want.AppendRow(cells).CheckOk();
    }
    EXPECT_EQ(Rows(shuffled), Rows(want)) << "col " << col;
    EXPECT_EQ(rng.Next(), same.Next()) << "col " << col;
  }
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

// A first field that begins with the UTF-8 byte-order mark is quoted on
// the way out, so reading it back does not drop those bytes as the mark.
TEST(CsvTest, FirstFieldStartingWithBomRoundTrips) {
  Table t("t", Schema({"\xEF\xBB\xBF" "name", "x"}));
  t.AppendRow({"\xEF\xBB\xBF" "cell", "\xEF\xBB\xBF"}).CheckOk();
  const std::string path =
      (std::filesystem::temp_directory_path() / "multiem_csv_bom_test.csv")
          .string();
  for (bool has_header : {true, false}) {
    CsvOptions options;
    options.has_header = has_header;
    WriteCsvFile(t, path, options).CheckOk();
    auto read = ReadCsvFile(path, options);
    ASSERT_TRUE(read.ok()) << read.status();
    if (has_header) {
      EXPECT_EQ(read->schema(), t.schema());
    }
    ASSERT_EQ(read->num_rows(), 1u);
    EXPECT_EQ(read->row(0), t.row(0));
  }
  std::remove(path.c_str());
}

// Whatever a table holds, ParseCsv(ToCsv(t)) gives it back: the same cells
// and, with a header, the same schema.
TEST(CsvTest, WriteThenReadRoundTripsRandomTables) {
  const std::string alphabet = "ab,;\"\r\n \xEF\xBB\xBF\t";
  constexpr std::string_view kBom = "\xEF\xBB\xBF";
  util::Rng rng(4242);
  auto random_cell = [&] {
    std::string cell;
    if (rng.NextBounded(8) == 0) cell = kBom;
    const size_t length = rng.NextBounded(7);
    for (size_t i = 0; i < length; ++i) {
      cell += alphabet[rng.NextBounded(alphabet.size())];
    }
    return cell;
  };
  size_t round_trips = 0;
  for (int iter = 0; iter < 5000; ++iter) {
    const size_t columns = 1 + rng.NextBounded(4);
    const size_t rows = rng.NextBounded(5);
    std::vector<std::string> names;
    for (size_t c = 0; c < columns; ++c) names.push_back(random_cell());
    Table t("t", Schema(names));
    for (size_t r = 0; r < rows; ++r) {
      std::vector<std::string> cells;
      for (size_t c = 0; c < columns; ++c) cells.push_back(random_cell());
      t.AppendRow(cells).CheckOk();
    }
    for (char delim : {',', ';', '\t'}) {
      for (bool has_header : {true, false}) {
        CsvOptions options;
        options.delimiter = delim;
        options.has_header = has_header;
        const std::string text = ToCsv(t, options);
        auto read = ParseCsv(text, options);
        ++round_trips;
        if (!has_header && rows == 0) {
          // No header and no rows write no bytes at all.
          ASSERT_EQ(text, "");
          ASSERT_FALSE(read.ok());
          continue;
        }
        ASSERT_TRUE(read.ok())
            << read.status() << " text: " << testing::PrintToString(text);
        if (has_header) {
          ASSERT_EQ(read->schema(), t.schema())
              << "text: " << testing::PrintToString(text);
        }
        ASSERT_EQ(read->num_columns(), columns);
        ASSERT_EQ(Rows(*read), Rows(t))
            << "text: " << testing::PrintToString(text);
      }
    }
  }
  EXPECT_EQ(round_trips, 30000u);
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

// Text of 16 to 600 bytes: plain runs of 0 to 40 bytes, so every special
// byte lands at every offset of a 16-byte block, each closed by a special
// byte. Most records keep `width` fields split by the generating delimiter,
// so many texts parse; a quoted field (with doubled quotes) now and then,
// a stray special and the cut at the end make the rest fail.
std::string LongRandomCsvText(util::Rng& rng) {
  const std::string plain = "ab \xEF\xBB\xBF";
  const std::string specials = "\",;\t\r\n";
  const std::string delims = ",;\t";
  const char delim = delims[rng.NextBounded(delims.size())];
  const size_t width = 1 + rng.NextBounded(4);
  const size_t target = 16 + rng.NextBounded(585);
  std::string text;
  if (rng.NextBounded(8) == 0) text = "\xEF\xBB\xBF";
  size_t field = 0;
  while (text.size() < target) {
    if (rng.NextBounded(6) == 0) {
      text += '"';
      for (size_t k = rng.NextBounded(41); k > 0; --k) {
        const size_t pick = rng.NextBounded(plain.size() + specials.size());
        if (pick < plain.size()) {
          text += plain[pick];
        } else {
          // Inside quotes a quote is doubled.
          const char c = specials[pick - plain.size()];
          text += c == '"' ? std::string("\"\"") : std::string(1, c);
        }
      }
      text += '"';
    } else {
      for (size_t k = rng.NextBounded(41); k > 0; --k) {
        text += plain[rng.NextBounded(plain.size())];
      }
    }
    if (rng.NextBounded(5) == 0) {
      text += specials[rng.NextBounded(specials.size())];
    } else if (++field < width) {
      text += delim;
    } else {
      text += rng.NextBounded(2) == 0 ? "\n" : "\r\n";
      field = 0;
    }
  }
  text.resize(std::min<size_t>(text.size(), 600));
  return text;
}

// The reference's verdict on `text`: the same status, or the same schema
// and rows.
void ExpectParsedLikeReference(const util::Result<Table>& got,
                               const util::Result<Table>& want,
                               const std::string& text) {
  ASSERT_EQ(got.ok(), want.ok()) << "input: " << testing::PrintToString(text);
  if (!want.ok()) {
    ASSERT_EQ(got.status().code(), want.status().code());
    ASSERT_EQ(got.status().message(), want.status().message())
        << "input: " << testing::PrintToString(text);
    return;
  }
  ASSERT_EQ(got->schema(), want->schema())
      << "input: " << testing::PrintToString(text);
  ASSERT_EQ(got->num_rows(), want->num_rows());
  for (size_t r = 0; r < want->num_rows(); ++r) {
    ASSERT_EQ(got->row(r), want->row(r))
        << "input: " << testing::PrintToString(text);
  }
}

TEST(CsvTest, OnePassParserMatchesReferenceOnRandomInputs) {
  // Short strings over the bytes every branch of the tokenizer looks at,
  // plus the BOM's bytes, and longer texts that fill whole scan blocks, for
  // three delimiters and both header modes: 30,000 short texts alternate
  // with 30,000 long ones. ParseCsv reads each text from a heap copy of its
  // exact size, so a sanitizer build flags any load past it; one short and
  // one long text in every 40 also go through a file, which ReadCsvFile
  // parses in the buffer it read it into.
  const std::string alphabet = "ab,;\"\r\n \xEF\xBB\xBF\t";
  const std::string path =
      (std::filesystem::temp_directory_path() / "multiem_csv_random_test.csv")
          .string();
  util::Rng rng(2024);
  size_t cases = 0;
  size_t accepted = 0;
  size_t long_cases = 0;
  size_t long_accepted = 0;
  size_t file_cases = 0;
  for (int iter = 0; iter < 60000; ++iter) {
    std::string text;
    const bool long_text = iter % 2 == 1;
    if (long_text) {
      text = LongRandomCsvText(rng);
    } else {
      const size_t length = rng.NextBounded(14);
      if (rng.NextBounded(8) == 0) text = "\xEF\xBB\xBF";
      for (size_t c = 0; c < length; ++c) {
        text += alphabet[rng.NextBounded(alphabet.size())];
      }
    }
    const std::unique_ptr<char[]> exact(new char[text.size()]);
    std::memcpy(exact.get(), text.data(), text.size());
    const std::string_view input(exact.get(), text.size());
    const bool via_file = iter % 40 < 2;
    if (via_file) {
      std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
    }
    for (char delim : {',', ';', '\t'}) {
      for (bool has_header : {true, false}) {
        CsvOptions options;
        options.delimiter = delim;
        options.has_header = has_header;
        auto want = ReferenceParseCsv(text, options);
        ExpectParsedLikeReference(ParseCsv(input, options), want, text);
        if (via_file) {
          ExpectParsedLikeReference(ReadCsvFile(path, options), want, text);
          ++file_cases;
        }
        if (HasFatalFailure()) return;
        ++cases;
        long_cases += long_text;
        accepted += want.ok();
        long_accepted += long_text && want.ok();
      }
    }
  }
  std::remove(path.c_str());
  EXPECT_EQ(cases, 360000u);
  EXPECT_EQ(long_cases, 180000u);
  EXPECT_EQ(file_cases, 18000u);
  EXPECT_GT(accepted, cases / 10) << "too few inputs parse to say much";
  EXPECT_GT(long_accepted, long_cases / 10)
      << "too few long inputs parse to say much";
}

}  // namespace
}  // namespace multiem::table
