#include "table/csv.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <utility>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace multiem::table {

namespace {

constexpr std::string_view kUtf8Bom = "\xEF\xBB\xBF";

// Finds where a plain run of field bytes stops: at '"', the delimiter, '\r'
// or '\n'. With SSE2 (the x86-64 baseline) it compares 16 bytes at a time
// and loads only whole blocks inside the text; the last partial block, and
// every byte on other targets, goes through a byte table.
class RunScanner {
 public:
  explicit RunScanner(char delim)
#if defined(__SSE2__)
      : delim_(_mm_set1_epi8(delim))
#endif
  {
    for (char c : {'"', delim, '\r', '\n'}) {
      special_[static_cast<unsigned char>(c)] = true;
    }
  }

  // Position of the first special byte of text[i, n), or n.
  size_t Next(const char* text, size_t i, size_t n) const {
#if defined(__SSE2__)
    for (; n - i >= 16; i += 16) {
      const __m128i block =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(text + i));
      const __m128i hits = _mm_or_si128(
          _mm_or_si128(_mm_cmpeq_epi8(block, quote_),
                       _mm_cmpeq_epi8(block, delim_)),
          _mm_or_si128(_mm_cmpeq_epi8(block, cr_), _mm_cmpeq_epi8(block, lf_)));
      const auto mask = static_cast<unsigned>(_mm_movemask_epi8(hits));
      if (mask != 0) return i + static_cast<size_t>(std::countr_zero(mask));
    }
#endif
    while (i < n && !special_[static_cast<unsigned char>(text[i])]) ++i;
    return i;
  }

 private:
  std::array<bool, 256> special_{};
#if defined(__SSE2__)
  const __m128i delim_;
  const __m128i quote_ = _mm_set1_epi8('"');
  const __m128i cr_ = _mm_set1_epi8('\r');
  const __m128i lf_ = _mm_set1_epi8('\n');
#endif
};

// Splits CSV text into fields, honoring quotes, in one pass: each field's
// bytes are written to the front of `cells` (a run of bytes that needs no
// decision at once) and its end offset is appended to `ends`. `cells` has
// room for the text and may be the buffer that holds it: a field never
// outgrows its text, so the bytes written never reach the bytes still to
// read. At each record's end, `on_record(first, next)` gets the index in
// `ends` of the record's first field and the offset in `text` of the byte
// after the record; it may drop fields from the back of `ends`, and the next
// field is written after the last one kept. On success `cells` holds just
// the fields. Outside quotes, a '"' opens a quoted field only at the
// field's start (later it is a plain byte) and '\r' is dropped; the
// checks run in the order quote, delimiter, '\r', '\n', which also decides
// what a delimiter of '"', '\r' or '\n' means. An unterminated quoted field
// fails, whatever `on_record` saw before it.
template <typename OnRecord>
util::Status Tokenize(std::string_view text, char delim, std::string& cells,
                      std::vector<size_t>& ends, OnRecord&& on_record) {
  const RunScanner scanner(delim);
  const char* const data = text.data();
  char* const out = cells.data();
  const size_t n = text.size();
  size_t i = 0;  // next byte to read
  size_t w = 0;  // next byte to write; w <= i
  size_t record_begin = ends.size();
  bool field_started = false;
  auto copy_run = [&](size_t from, size_t count) {
    if (out + w != data + from) std::memmove(out + w, data + from, count);
    w += count;
  };
  auto end_field = [&] {
    ends.push_back(w);
    field_started = false;
  };
  auto end_record = [&] {
    end_field();
    on_record(record_begin, i);
    record_begin = ends.size();
    w = ends.empty() ? 0 : ends.back();
  };
  while (i < n) {
    const size_t run = scanner.Next(data, i, n);
    if (run > i) {
      copy_run(i, run - i);
      field_started = true;
      i = run;
      if (i == n) break;
    }
    const char c = data[i];
    if (c == '"' && !field_started) {
      // A quoted run ends at the first '"' not doubled; a doubled one is a
      // literal quote.
      field_started = true;
      ++i;
      for (;;) {
        const char* quote =
            static_cast<const char*>(std::memchr(data + i, '"', n - i));
        if (quote == nullptr) {
          return util::Status::InvalidArgument(
              "CSV: unterminated quoted field");
        }
        const size_t at = static_cast<size_t>(quote - data);
        copy_run(i, at - i);
        i = at + 1;
        if (i < n && data[i] == '"') {
          out[w++] = '"';
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
      ++i;
      end_record();
    } else {
      out[w++] = c;  // a '"' inside a started field is a plain byte
      ++i;
    }
  }
  // Trailing record without final newline. Only a started field holds
  // bytes, so an empty current field with no fields before it is no record.
  if (ends.size() > record_begin || field_started) end_record();
  cells.resize(w);
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

// Parses CSV text straight into a table's cell buffer; a friend of Table.
class CsvReader {
 public:
  // Parses the caller's `text` into a fresh cell buffer.
  static util::Result<Table> Parse(std::string_view text,
                                   const CsvOptions& options) {
    Table out("csv", Schema());
    out.bytes_.resize(text.size());
    MULTIEM_RETURN_IF_ERROR(Fill(text, options, out));
    return out;
  }

  // Parses in place: the buffer that holds `text` becomes the cell buffer.
  static util::Result<Table> ParseInPlace(std::string text,
                                          const CsvOptions& options) {
    Table out("csv", Schema());
    out.bytes_ = std::move(text);
    MULTIEM_RETURN_IF_ERROR(Fill(out.bytes_, options, out));
    return out;
  }

 private:
  // Parses `text` into `out`, whose cell buffer has room for the text and
  // may be the buffer that holds it.
  static util::Status Fill(std::string_view text, const CsvOptions& options,
                           Table& out) {
    // Spreadsheet exports often start with a UTF-8 byte-order mark. Left
    // in, it would become part of the first header name (or cell) and make
    // the schema differ from a BOM-less source's while printing the same.
    if (text.starts_with(kUtf8Bom)) text.remove_prefix(kUtf8Bom.size());
    // A record ends at a '\n' or at the end of the text, so there are this
    // many records at most.
    const size_t max_records =
        static_cast<size_t>(std::count(text.begin(), text.end(), '\n')) + 1;
    size_t num_records = 0;
    size_t record_start = 0;  // offset in `text` of the record being read
    util::Status width_error = util::Status::Ok();  // the first ragged record
    auto on_record = [&](size_t first, size_t next) {
      const size_t width = out.ends_.size() - first;
      const size_t r = num_records++;
      const size_t record_bytes = next - record_start;  // at least 1
      record_start = next;
      if (r == 0) {
        std::vector<std::string> names;
        names.reserve(width);
        for (size_t i = 0; i < width; ++i) {
          const size_t from = out.CellBegin(i);
          names.push_back(options.has_header
                              ? out.bytes_.substr(from, out.ends_[i] - from)
                              : "col" + std::to_string(i));
        }
        out.schema_ = Schema(std::move(names));
        if (options.has_header) {
          out.ends_.clear();
          return;
        }
      }
      if (width_error.ok() && width != out.num_columns()) {
        width_error = util::Status::InvalidArgument(
            "CSV: record " + std::to_string(r) + " has " +
            std::to_string(width) + " fields, expected " +
            std::to_string(out.num_columns()));
      }
      if (!width_error.ok()) {  // the parse has failed: keep no more cells
        out.ends_.resize(first);
        return;
      }
      if (out.num_rows_ == 0) {
        // Presize the offsets for one record per newline or, if fewer, for
        // as many records of half the first one's length as the text holds:
        // quoted newlines make the first count too high. The second may fall
        // short, and push_back grows past it.
        out.ends_.reserve(
            std::min(max_records, 2 * text.size() / record_bytes + 1) * width);
      }
      ++out.num_rows_;
    };
    MULTIEM_RETURN_IF_ERROR(
        Tokenize(text, options.delimiter, out.bytes_, out.ends_, on_record));
    if (num_records == 0) {
      return util::Status::InvalidArgument("CSV: empty input");
    }
    return width_error;
  }
};

util::Result<Table> ParseCsv(std::string_view text, const CsvOptions& options) {
  return CsvReader::Parse(text, options);
}

util::Result<Table> ReadCsvFile(const std::string& path,
                                const CsvOptions& options) {
  std::string text;
  MULTIEM_RETURN_IF_ERROR(ReadWholeFile(path, &text));
  auto result = CsvReader::ParseInPlace(std::move(text), options);
  if (result.ok()) result->set_name(path);
  return result;
}

namespace {

// Appends `field` to `out`, quoted where reading it back needs it. A field
// that opens the text (`out` is empty) is quoted when it begins with the
// UTF-8 byte-order mark too, which ParseCsv would drop.
void AppendCsvField(std::string_view field, char delim, std::string& out) {
  const bool needs_quotes =
      field.find_first_of("\"\r\n") != std::string_view::npos ||
      field.find(delim) != std::string_view::npos ||
      (out.empty() && field.starts_with(kUtf8Bom));
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
