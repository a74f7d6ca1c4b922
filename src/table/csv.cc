#include "table/csv.h"

#include <fstream>
#include <sstream>
#include <vector>

namespace multiem::table {

namespace {

// Splits CSV text into records of fields, honoring quotes.
util::Result<std::vector<std::vector<std::string>>> Tokenize(
    std::string_view text, char delim) {
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
      ++i;  // swallow; \r\n handled by the \n branch
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
  // Trailing record without final newline.
  if (!field.empty() || !current_record.empty() || field_started) {
    end_record();
  }
  return records;
}

}  // namespace

util::Result<Table> ParseCsv(std::string_view text, const CsvOptions& options) {
  // Spreadsheet exports often start with a UTF-8 byte-order mark. Left in,
  // it would become part of the first header name (or cell) and make the
  // schema differ from a BOM-less source's while printing the same.
  constexpr std::string_view kUtf8Bom = "\xEF\xBB\xBF";
  if (text.starts_with(kUtf8Bom)) text.remove_prefix(kUtf8Bom.size());
  auto tokens = Tokenize(text, options.delimiter);
  if (!tokens.ok()) return tokens.status();
  const auto& records = *tokens;
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
    for (size_t i = 0; i < records[0].size(); ++i) {
      names.push_back("col" + std::to_string(i));
    }
    schema = Schema(std::move(names));
  }
  Table out("csv", schema);
  out.Reserve(records.size() - first_data_row);
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

util::Result<Table> ReadCsvFile(const std::string& path,
                                const CsvOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return util::Status::NotFound("cannot open file: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto result = ParseCsv(buffer.str(), options);
  if (result.ok()) result->set_name(path);
  return result;
}

namespace {

void AppendCsvField(const std::string& field, char delim, std::string& out) {
  bool needs_quotes = field.find_first_of("\"\r\n") != std::string::npos ||
                      field.find(delim) != std::string::npos;
  if (!needs_quotes) {
    out += field;
    return;
  }
  out += '"';
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
}

}  // namespace

std::string ToCsv(const Table& t, const CsvOptions& options) {
  std::string out;
  if (options.has_header) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      if (c > 0) out += options.delimiter;
      AppendCsvField(t.schema().name(c), options.delimiter, out);
    }
    out += '\n';
  }
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      if (c > 0) out += options.delimiter;
      AppendCsvField(t.cell(r, c), options.delimiter, out);
    }
    out += '\n';
  }
  return out;
}

util::Status WriteCsvFile(const Table& t, const std::string& path,
                          const CsvOptions& options) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return util::Status::NotFound("cannot open file for write: " + path);
  }
  out << ToCsv(t, options);
  if (!out) {
    return util::Status::Internal("write failed: " + path);
  }
  return util::Status::Ok();
}

}  // namespace multiem::table
