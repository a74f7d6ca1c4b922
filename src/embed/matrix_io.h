/// \file matrix_io.h
/// EmbeddingMatrix <-> artifact-section serialization: the derived rows of
/// every saved merge table (core::MergeTable::WriteSections, for MEMMERGT
/// spills and the manifest's "centroids"), the manifest's "base" matrices
/// (core/artifact.cc), and the MEMSHARD base sections
/// (distrib/shard_worker.cc). The wire form is u64 rows, u64 dim, then the
/// count-prefixed f32 row-major payload.

#ifndef MULTIEM_EMBED_MATRIX_IO_H_
#define MULTIEM_EMBED_MATRIX_IO_H_

#include <cstddef>
#include <functional>
#include <span>

#include "embed/embedding.h"
#include "util/io.h"
#include "util/status.h"

namespace multiem::embed {

/// Appends `m` to `out` (rows, dim, payload).
void WriteMatrix(util::ByteWriter& out, const EmbeddingMatrix& m);

/// Appends a `rows` x `dim` matrix in WriteMatrix's wire form without
/// holding it: row r is what `row(r, scratch)` returns, a span of the
/// caller's storage or `scratch` (dim floats) filled. The bytes equal
/// WriteMatrix of the gathered matrix.
void WriteMatrixRows(
    util::ByteWriter& out, size_t rows, size_t dim,
    const std::function<std::span<const float>(size_t, std::span<float>)>&
        row);

/// Reads one matrix written by WriteMatrix, validating that the header and
/// payload agree. When `in` carries its section's owner (any
/// ArtifactReader::Section) and the floats are aligned, the matrix binds a
/// zero-copy view over them instead of copying (ByteReader::ReadArrayCow).
util::Status ReadMatrix(util::ByteReader& in, EmbeddingMatrix* out);

}  // namespace multiem::embed

#endif  // MULTIEM_EMBED_MATRIX_IO_H_
