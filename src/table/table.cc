#include "table/table.h"

#include <algorithm>
#include <cstdlib>
#include <numeric>

namespace multiem::table {

util::Status Table::AppendRow(const std::vector<std::string>& cells) {
  if (cells.size() != schema_.num_attributes()) {
    return util::Status::InvalidArgument(
        "row width " + std::to_string(cells.size()) +
        " does not match schema width " +
        std::to_string(schema_.num_attributes()) + " in table '" + name_ +
        "'");
  }
  for (const std::string& cell : cells) PushCell(cell);
  ++num_rows_;
  return util::Status::Ok();
}

std::vector<std::string> Table::row(size_t row) const {
  std::vector<std::string> out;
  out.reserve(num_columns());
  for (size_t c = 0; c < num_columns(); ++c) out.emplace_back(cell(row, c));
  return out;
}

std::vector<std::string> Table::Column(size_t col) const {
  std::vector<std::string> out;
  out.reserve(num_rows_);
  for (size_t r = 0; r < num_rows_; ++r) out.emplace_back(cell(r, col));
  return out;
}

void Table::AppendRows(const Table& t, size_t begin, size_t end) {
  const size_t width = num_columns();
  const size_t from = t.CellBegin(begin * width);
  const size_t to = t.CellBegin(end * width);
  const size_t shift = bytes_.size() - from;
  bytes_.append(t.bytes_, from, to - from);
  for (size_t i = begin * width; i < end * width; ++i) {
    ends_.push_back(t.ends_[i] + shift);
  }
  num_rows_ += end - begin;
}

util::Result<Table> Concat(const std::vector<Table>& tables) {
  if (tables.empty()) {
    return util::Status::InvalidArgument("Concat: no tables given");
  }
  const Schema& schema = tables[0].schema();
  for (const Table& t : tables) {
    if (t.schema() != schema) {
      return util::Status::InvalidArgument(
          "Concat: table '" + t.name() + "' has a different schema");
    }
  }
  Table out("concat", schema);
  size_t bytes = 0;
  size_t cells = 0;
  for (const Table& t : tables) {
    bytes += t.bytes_.size();
    cells += t.ends_.size();
  }
  out.bytes_.reserve(bytes);
  out.ends_.reserve(cells);
  for (const Table& t : tables) out.AppendRows(t, 0, t.num_rows());
  return out;
}

Table SampleRows(const Table& t, double ratio, util::Rng& rng) {
  ratio = std::clamp(ratio, 0.0, 1.0);
  size_t count = static_cast<size_t>(ratio * static_cast<double>(t.num_rows()) + 0.999999);
  count = std::min(count, t.num_rows());
  std::vector<size_t> picked = rng.SampleWithoutReplacement(t.num_rows(), count);
  std::sort(picked.begin(), picked.end());
  Table out(t.name() + "_sample", t.schema());
  out.Reserve(picked.size());
  for (size_t idx : picked) out.AppendRows(t, idx, idx + 1);
  return out;
}

Table ShuffleColumn(const Table& t, size_t col, util::Rng& rng) {
  if (col >= t.num_columns()) std::abort();
  // Shuffling row numbers makes the draws that shuffling the column's
  // values would: row r takes the value of row order[r].
  std::vector<size_t> order(t.num_rows());
  std::iota(order.begin(), order.end(), size_t{0});
  rng.Shuffle(order);
  Table out(t.name(), t.schema());
  out.bytes_.reserve(t.bytes_.size());
  out.ends_.reserve(t.ends_.size());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      out.PushCell(t.cell(c == col ? order[r] : r, c));
    }
  }
  out.num_rows_ = t.num_rows();
  return out;
}

Table ProjectColumns(const Table& t, const std::vector<size_t>& columns) {
  std::vector<std::string> names;
  names.reserve(columns.size());
  for (size_t c : columns) {
    if (c >= t.num_columns()) std::abort();
    names.push_back(t.schema().name(c));
  }
  Table out(t.name(), Schema(std::move(names)));
  out.Reserve(t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c : columns) out.PushCell(t.cell(r, c));
  }
  out.num_rows_ = t.num_rows();
  return out;
}

}  // namespace multiem::table
