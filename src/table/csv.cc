#include "table/csv.h"

#include <array>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <utility>
#include <vector>

namespace multiem::table {

namespace {

// Splits CSV text into records of fields, honoring quotes, in one pass:
// runs of bytes that need no decision are appended at once, and each
// finished record is moved into `on_record`. Outside quotes, a '"' opens a
// quoted field only at the field's start (later it is a plain byte) and
// '\r' is dropped; the checks run in the order quote, delimiter, '\r',
// '\n', which also decides what a delimiter of '"', '\r' or '\n' means. An
// unterminated quoted field fails, whatever `on_record` saw before it.
template <typename OnRecord>
util::Status Tokenize(std::string_view text, char delim, OnRecord&& on_record) {
  std::array<bool, 256> special{};
  for (char c : {'"', delim, '\r', '\n'}) {
    special[static_cast<unsigned char>(c)] = true;
  }
  std::vector<std::string> record;
  std::string field;
  bool field_started = false;
  auto end_field = [&] {
    record.push_back(std::move(field));
    field.clear();
    field_started = false;
  };
  auto end_record = [&] {
    end_field();
    const size_t width = record.size();
    on_record(std::move(record));
    record.clear();
    record.reserve(width);
  };
  const size_t n = text.size();
  size_t i = 0;
  while (i < n) {
    size_t run = i;
    while (run < n && !special[static_cast<unsigned char>(text[run])]) ++run;
    if (run > i) {
      field.append(text, i, run - i);
      field_started = true;
      i = run;
      if (i == n) break;
    }
    const char c = text[i];
    if (c == '"' && !field_started) {
      // A quoted run ends at the first '"' not doubled; a doubled one is a
      // literal quote.
      field_started = true;
      ++i;
      for (;;) {
        const size_t quote = text.find('"', i);
        if (quote == std::string_view::npos) {
          return util::Status::InvalidArgument(
              "CSV: unterminated quoted field");
        }
        field.append(text, i, quote - i);
        i = quote + 1;
        if (i < n && text[i] == '"') {
          field += '"';
          ++i;
          continue;
        }
        break;
      }
    } else if (c == delim) {
      end_field();
      ++i;
    } else if (c == '\r') {
      ++i;  // swallow; \r\n handled by the \n branch
    } else if (c == '\n') {
      end_record();
      ++i;
    } else {
      field += c;  // a '"' inside a started field is a plain byte
      ++i;
    }
  }
  // Trailing record without final newline.
  if (!field.empty() || !record.empty() || field_started) end_record();
  return util::Status::Ok();
}

// The whole of the file at `path`: a regular file in one read at its size,
// a pipe or other stream read to EOF.
util::Status ReadWholeFile(const std::string& path, std::string* out) {
  std::error_code ec;
  const std::filesystem::file_status status = std::filesystem::status(path, ec);
  if (std::filesystem::is_directory(status)) {
    return util::Status::InvalidArgument("CSV path '" + path +
                                         "' is a directory, not a file");
  }
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (file == nullptr) {
    return util::Status::NotFound("cannot open file: " + path);
  }
  size_t capacity = size_t{1} << 16;
  if (std::filesystem::is_regular_file(status)) {
    const uintmax_t bytes = std::filesystem::file_size(path, ec);
    // One byte past the size, so the read that fills it also meets EOF.
    if (!ec) capacity = static_cast<size_t>(bytes) + 1;
  }
  std::string& buffer = *out;
  buffer.resize(capacity);
  size_t size = 0;
  for (;;) {
    size += std::fread(buffer.data() + size, 1, buffer.size() - size,
                       file.get());
    if (size < buffer.size()) break;  // EOF or an error
    buffer.resize(buffer.size() * 2);
  }
  if (std::ferror(file.get()) != 0) {
    return util::Status::Internal("read error on CSV file: " + path);
  }
  buffer.resize(size);
  return util::Status::Ok();
}

}  // namespace

util::Result<Table> ParseCsv(std::string_view text, const CsvOptions& options) {
  // Spreadsheet exports often start with a UTF-8 byte-order mark. Left in,
  // it would become part of the first header name (or cell) and make the
  // schema differ from a BOM-less source's while printing the same.
  constexpr std::string_view kUtf8Bom = "\xEF\xBB\xBF";
  if (text.starts_with(kUtf8Bom)) text.remove_prefix(kUtf8Bom.size());
  Table out;
  size_t num_records = 0;
  util::Status width_error = util::Status::Ok();  // the first ragged record
  auto on_record = [&](std::vector<std::string>&& record) {
    const size_t r = num_records++;
    if (r == 0) {
      if (options.has_header) {
        out = Table("csv", Schema(std::move(record)));
        return;
      }
      std::vector<std::string> names;
      for (size_t i = 0; i < record.size(); ++i) {
        names.push_back("col" + std::to_string(i));
      }
      out = Table("csv", Schema(std::move(names)));
    }
    if (!width_error.ok()) return;
    if (record.size() != out.num_columns()) {
      width_error = util::Status::InvalidArgument(
          "CSV: record " + std::to_string(r) + " has " +
          std::to_string(record.size()) + " fields, expected " +
          std::to_string(out.num_columns()));
      return;
    }
    width_error = out.AppendRow(std::move(record));
  };
  MULTIEM_RETURN_IF_ERROR(Tokenize(text, options.delimiter, on_record));
  if (num_records == 0) {
    return util::Status::InvalidArgument("CSV: empty input");
  }
  MULTIEM_RETURN_IF_ERROR(width_error);
  return out;
}

util::Result<Table> ReadCsvFile(const std::string& path,
                                const CsvOptions& options) {
  std::string text;
  MULTIEM_RETURN_IF_ERROR(ReadWholeFile(path, &text));
  auto result = ParseCsv(text, options);
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
