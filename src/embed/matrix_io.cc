#include "embed/matrix_io.h"

#include <cstdint>
#include <string>

namespace multiem::embed {

void WriteMatrix(util::ByteWriter& out, const EmbeddingMatrix& m) {
  out.Reserve(3 * sizeof(uint64_t) + m.SizeBytes());
  out.WriteU64(m.num_rows());
  out.WriteU64(m.dim());
  out.WriteF32Array(m.data());
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
