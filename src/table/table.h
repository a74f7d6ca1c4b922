#ifndef MULTIEM_TABLE_TABLE_H_
#define MULTIEM_TABLE_TABLE_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "table/schema.h"
#include "util/rng.h"
#include "util/status.h"

namespace multiem::table {

/// In-memory relational table: a Schema plus rows of string cells.
///
/// This is the E = {e_1..e_m} of the paper. Cells are strings because entity
/// matching serializes every value to text anyway (Section II-B); numeric
/// columns keep their textual form. Every cell's bytes sit back to back in
/// one buffer, row-major (the dominant access is whole-entity
/// serialization), with one end offset per cell: a table makes a few
/// allocations however many rows it holds.
class Table {
 public:
  Table() = default;
  /// Creates an empty table with the given name (e.g. "source_a") and schema.
  Table(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  /// Table name; informational only.
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  const Schema& schema() const { return schema_; }

  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return schema_.num_attributes(); }

  /// Appends a row. Returns InvalidArgument if the cell count does not match
  /// the schema width.
  util::Status AppendRow(const std::vector<std::string>& cells);

  /// Cell at (row, col); both must be in range. The view is valid until the
  /// table is next mutated or destroyed.
  std::string_view cell(size_t row, size_t col) const {
    const size_t i = row * num_columns() + col;
    const size_t begin = CellBegin(i);
    return std::string_view(bytes_.data() + begin, ends_[i] - begin);
  }

  /// Copy of row `row` (< num_rows()) as one string per cell.
  std::vector<std::string> row(size_t row) const;

  /// Copy of column `col` as a vector (length num_rows()).
  std::vector<std::string> Column(size_t col) const;

  /// Reserves capacity for the cell offsets of `n` rows.
  void Reserve(size_t n) { ends_.reserve(n * num_columns()); }

 private:
  friend util::Result<Table> Concat(const std::vector<Table>& tables);
  friend Table SampleRows(const Table& t, double ratio, util::Rng& rng);
  friend Table ShuffleColumn(const Table& t, size_t col, util::Rng& rng);
  friend Table ProjectColumns(const Table& t,
                              const std::vector<size_t>& columns);
  friend class CsvReader;  // csv.cc: parses fields straight into bytes_

  // Offset in bytes_ where cell i (row-major) begins.
  size_t CellBegin(size_t i) const { return i == 0 ? 0 : ends_[i - 1]; }
  // Appends `value` as the next cell; every num_columns() cells make a row,
  // which the caller counts.
  void PushCell(std::string_view value) {
    bytes_.append(value);
    ends_.push_back(bytes_.size());
  }
  // Appends rows [begin, end) of `t`, which has this table's width, as one
  // byte-range copy.
  void AppendRows(const Table& t, size_t begin, size_t end);

  std::string name_;
  Schema schema_;
  std::string bytes_;          // every cell, back to back, row-major
  std::vector<size_t> ends_;   // end offset in bytes_ of each cell
  size_t num_rows_ = 0;        // counted apart: a table may have no columns
};

/// Concatenates tables that share a schema into one (Algorithm 1 line 1).
/// Returns InvalidArgument if `tables` is empty or schemas differ.
util::Result<Table> Concat(const std::vector<Table>& tables);

/// Uniform sample (without replacement) of ceil(ratio * num_rows) rows;
/// ratio is clamped to [0, 1]. The sampled table preserves row order.
Table SampleRows(const Table& t, double ratio, util::Rng& rng);

/// Copy of `t` with the values of column `col` randomly permuted across rows
/// (the shuffle step of Algorithm 1).
Table ShuffleColumn(const Table& t, size_t col, util::Rng& rng);

/// Copy of `t` keeping only the columns listed in `columns` (in that order).
/// Out-of-range column indices abort.
Table ProjectColumns(const Table& t, const std::vector<size_t>& columns);

}  // namespace multiem::table

#endif  // MULTIEM_TABLE_TABLE_H_
