#include "embed/serialize.h"

#include "util/string_util.h"

namespace multiem::embed {

std::string SerializeEntity(const table::Table& t, size_t row,
                            const std::vector<size_t>& columns) {
  std::string out;
  for (size_t c : columns) {
    const std::string_view value = t.cell(row, c);
    if (value.empty()) continue;
    if (!out.empty()) out += ' ';
    out += value;
  }
  return util::NormalizeWhitespace(out);
}

std::string SerializeEntity(const table::Table& t, size_t row) {
  std::vector<size_t> all(t.num_columns());
  for (size_t c = 0; c < all.size(); ++c) all[c] = c;
  return SerializeEntity(t, row, all);
}

std::vector<std::string> SerializeTable(const table::Table& t,
                                        const std::vector<size_t>& columns) {
  std::vector<std::string> out;
  out.reserve(t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    out.push_back(SerializeEntity(t, r, columns));
  }
  return out;
}

std::vector<std::string> SerializeTable(const table::Table& t) {
  std::vector<size_t> all(t.num_columns());
  for (size_t c = 0; c < all.size(); ++c) all[c] = c;
  return SerializeTable(t, all);
}

}  // namespace multiem::embed
