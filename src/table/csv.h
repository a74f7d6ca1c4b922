#ifndef MULTIEM_TABLE_CSV_H_
#define MULTIEM_TABLE_CSV_H_

#include <string>
#include <string_view>

#include "table/table.h"
#include "util/status.h"

namespace multiem::table {

/// Options for CSV parsing/serialization (RFC 4180 quoting rules).
struct CsvOptions {
  char delimiter = ',';
  /// When true, the first record is interpreted as the header (schema).
  bool has_header = true;
};

/// Parses CSV text into a Table. Fields may be quoted with '"'; embedded
/// quotes are doubled; embedded newlines inside quoted fields are supported.
/// A UTF-8 byte-order mark at the very start of `text` is dropped; the same
/// bytes anywhere else are kept verbatim. Rows with a different width than
/// the header produce InvalidArgument.
util::Result<Table> ParseCsv(std::string_view text,
                             const CsvOptions& options = {});

/// Reads and parses a CSV file from disk: a regular file in one read at its
/// size, a pipe or other stream to EOF. A path that cannot be opened is
/// NotFound, a directory is InvalidArgument naming the path, and a read
/// error is Internal (never a table parsed from a prefix).
util::Result<Table> ReadCsvFile(const std::string& path,
                                const CsvOptions& options = {});

/// Serializes a table to CSV text (header first when options.has_header).
std::string ToCsv(const Table& t, const CsvOptions& options = {});

/// Writes a table to a CSV file, overwriting any existing file.
util::Status WriteCsvFile(const Table& t, const std::string& path,
                          const CsvOptions& options = {});

}  // namespace multiem::table

#endif  // MULTIEM_TABLE_CSV_H_
