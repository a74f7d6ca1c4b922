/// \file matrix_io.h
/// EmbeddingMatrix <-> artifact-section serialization: the manifest's "base"
/// matrices (core/artifact.cc), the MEMSHARD base sections
/// (distrib/shard_worker.cc), and the derived rows that older merge-table
/// files carry (core::MergeTable::ReadItems checks their shape). The wire
/// form is u64 rows, u64 dim, then the count-prefixed f32 row-major
/// payload.

#ifndef MULTIEM_EMBED_MATRIX_IO_H_
#define MULTIEM_EMBED_MATRIX_IO_H_

#include "embed/embedding.h"
#include "util/io.h"
#include "util/status.h"

namespace multiem::embed {

/// Appends `m` to `out` (rows, dim, payload).
void WriteMatrix(util::ByteWriter& out, const EmbeddingMatrix& m);

/// Reads one matrix written by WriteMatrix, validating that the header and
/// payload agree. When `in` carries its section's owner (any
/// ArtifactReader::Section) and the floats are aligned, the matrix binds a
/// zero-copy view over them instead of copying (ByteReader::ReadArrayCow).
util::Status ReadMatrix(util::ByteReader& in, EmbeddingMatrix* out);

}  // namespace multiem::embed

#endif  // MULTIEM_EMBED_MATRIX_IO_H_
