#include "embed/matrix_io.h"

#include <cstdint>
#include <string>
#include <vector>

namespace multiem::embed {

void WriteMatrix(util::ByteWriter& out, const EmbeddingMatrix& m) {
  WriteMatrixRows(out, m.num_rows(), m.dim(),
                  [&](size_t r, std::span<float>) { return m.Row(r); });
}

void WriteMatrixRows(
    util::ByteWriter& out, size_t rows, size_t dim,
    const std::function<std::span<const float>(size_t, std::span<float>)>&
        row) {
  out.Reserve(3 * sizeof(uint64_t) + rows * dim * sizeof(float));
  out.WriteU64(rows);
  out.WriteU64(dim);
  out.WriteU64(rows * dim);  // WriteF32Array's count word
  std::vector<float> scratch(dim);
  for (size_t r = 0; r < rows; ++r) out.WriteF32Elements(row(r, scratch));
}

util::Status ReadMatrix(util::ByteReader& in, EmbeddingMatrix* out) {
  uint64_t rows, dim;
  MULTIEM_RETURN_IF_ERROR(in.ReadU64(&rows));
  MULTIEM_RETURN_IF_ERROR(in.ReadU64(&dim));
  util::CowSlab<float> data;
  MULTIEM_RETURN_IF_ERROR(in.ReadArrayCow(&data));
  // Division form (crafted counts must not wrap the product), plus a
  // plausibility cap on dim: a consistent-but-absurd dimensionality would
  // otherwise sail through every cross-check and blow up only at the first
  // query's EncodeBatch allocation.
  constexpr uint64_t kMaxDim = uint64_t{1} << 24;
  if (dim == 0 || dim > kMaxDim || data.size() % dim != 0 ||
      data.size() / dim != rows) {
    return util::Status::InvalidArgument(
        "matrix section holds " + std::to_string(data.size()) +
        " floats, header claims " + std::to_string(rows) + " x " +
        std::to_string(dim));
  }
  *out = EmbeddingMatrix::FromSlab(static_cast<size_t>(dim), std::move(data));
  return util::Status::Ok();
}

}  // namespace multiem::embed
