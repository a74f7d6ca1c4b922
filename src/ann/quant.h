/// \file quant.h
/// Quantized vector store for the ANN indexes: scalar int8 with a per-vector
/// affine map (and a raw-fp16 variant) plus the asymmetric distance kernels
/// that let an fp32 query score quantized codes directly. The store rides
/// inside HnswIndex / BruteForceIndex: graph construction and exact rerank
/// stay on the retained fp32 originals, only the candidate-scan distances go
/// through the codes, so a `rerank_factor * k` fp32 rerank restores
/// recall@10 >= 0.95 (see docs/API.md, "Quantized vectors").
///
/// Everything here is deterministic: encode uses round-to-nearest-even in
/// portable integer math (never the host's F16C unit), so the same fp32
/// input always produces the same code bytes on every machine — the property
/// the byte-identical re-save CI gates extend to quantized artifacts.

#ifndef MULTIEM_ANN_QUANT_H_
#define MULTIEM_ANN_QUANT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>

#include "ann/metric.h"
#include "util/io.h"
#include "util/memory.h"
#include "util/status.h"

namespace multiem::ann {

/// How an index stores vectors for the approximate candidate scan. The fp32
/// originals are always retained for construction and rerank; this selects
/// the representation the hot search loop reads.
enum class Quantization : uint8_t {
  kNone = 0,  ///< fp32 only (the pre-quantization behavior).
  kInt8 = 1,  ///< per-vector affine int8: 4 bytes/dim -> 1 byte/dim.
  kFp16 = 2,  ///< IEEE binary16 codes: 4 bytes/dim -> 2 bytes/dim.
};

/// Canonical name ("none", "int8", "fp16").
std::string_view QuantizationName(Quantization q);

/// Parses a canonical name; false (and `*out` untouched) for anything else.
bool ParseQuantization(std::string_view name, Quantization* out);

/// Portable IEEE-754 binary32 -> binary16 conversion with round-to-nearest-
/// even, in pure integer math so encoded bytes are host-independent
/// (hardware F16C also rounds to nearest even, but encode never depends on
/// it being present). NaN stays NaN (quieted), overflow goes to +/-inf,
/// tiny values flush through the subnormal range to +/-0.
uint16_t FloatToHalf(float value);

/// Exact binary16 -> binary32 widening (every half is representable).
float HalfToFloat(uint16_t bits);

/// Asymmetric kernels: fp32 query against quantized codes. Each has a
/// portable scalar form and a SIMD form mirroring the embed::Dot AVX2+FMA
/// idiom (four independent accumulators over 32-lane strides, scalar tail).
/// The unsuffixed entry points dispatch to SIMD when compiled in
/// (MULTIEM_NATIVE_ARCH on an AVX2+FMA host) and scalar otherwise. The
/// suffixed forms stay separately callable so the parity fuzz suite can
/// compare them on the same inputs; without AVX2 the *Simd forms fall back
/// to scalar and the comparison is trivially exact.
///
/// Tolerance contract: scalar and SIMD accumulate in different orders, so
/// results agree to relative error O(dim * eps_f32), not bit-exactly.

/// Sum of q[i] * codes[i] with the raw (unscaled) int8 codes. The caller
/// applies the per-vector affine map: dot(q, x_hat) = mid * sum(q) +
/// scale * DotI8(q, codes).
float DotI8Scalar(std::span<const float> q, std::span<const int8_t> codes);
float DotI8Simd(std::span<const float> q, std::span<const int8_t> codes);
float DotI8(std::span<const float> q, std::span<const int8_t> codes);

/// Sum of q[i] * HalfToFloat(codes[i]).
float DotF16Scalar(std::span<const float> q, std::span<const uint16_t> codes);
float DotF16Simd(std::span<const float> q, std::span<const uint16_t> codes);
float DotF16(std::span<const float> q, std::span<const uint16_t> codes);

/// Sum of (q[i] - HalfToFloat(codes[i]))^2 (squared L2, no sqrt).
float EuclideanSqF16Scalar(std::span<const float> q,
                           std::span<const uint16_t> codes);
float EuclideanSqF16Simd(std::span<const float> q,
                         std::span<const uint16_t> codes);
float EuclideanSqF16(std::span<const float> q,
                     std::span<const uint16_t> codes);

/// True when this binary was compiled with the AVX2+FMA kernel paths (the
/// dispatching entry points actually diverge from the scalar forms).
bool QuantSimdEnabled();

/// Artifact sections a quantized index adds next to its fp32 slabs (see
/// docs/FORMATS.md, MEMINDEX v2). Present only when quantization is on —
/// unquantized indexes keep writing the byte-identical v1 layout.
inline constexpr std::string_view kQuantMetaSection = "quant";
inline constexpr std::string_view kQuantCodesSection = "quant_codes";
inline constexpr std::string_view kQuantParamsSection = "quant_params";

/// The quantized code plane of one index: row-major codes plus per-vector
/// parameters, CowSlab-backed so a mapped artifact serves the codes straight
/// from page cache. Rows are append-only and encoded on insert (the
/// quantize-on-insert path incremental AddTable uses); the store never sees
/// the fp32 originals again after Append returns.
class QuantizedStore {
 public:
  /// Per-vector parameter stride in the params slab, both modes:
  /// {scale, mid, norm_sq, reserved(0)}. For fp16 only norm_sq is
  /// meaningful; the uniform stride keeps the on-disk layout single-schema.
  static constexpr size_t kParamStride = 4;

  QuantizedStore() = default;

  /// Re-initializes to an empty store of `mode` over `dim`-sized rows.
  void Reset(Quantization mode, size_t dim);

  Quantization mode() const { return mode_; }
  bool enabled() const { return mode_ != Quantization::kNone; }
  size_t dim() const { return dim_; }
  /// Encoded row count.
  size_t size() const;

  /// Encodes and appends one vector (aborts on dim mismatch, mirroring the
  /// index Add contract). No-op when mode is kNone.
  void Append(std::span<const float> vec);

  /// Query-side terms the affine expansion reuses across every row of one
  /// search: sum = sum(q_i) and norm_sq = sum(q_i^2). Prepare once per
  /// query (one fused pass), then score rows with DotRow/EuclideanRow.
  struct QueryContext {
    float sum = 0.0f;
    float norm_sq = 0.0f;
  };
  static QueryContext Prepare(std::span<const float> query);

  /// dot(query, dequantized row).
  float DotRow(std::span<const float> query, const QueryContext& ctx,
               size_t row) const;

  /// L2 distance (with sqrt, matching embed::EuclideanDistance) between the
  /// query and the dequantized row. int8 uses the norm identity
  /// ||q - x_hat||^2 = ||q||^2 - 2 dot + ||x_hat||^2 with the stored
  /// norm_sq; fp16 takes the direct difference kernel.
  float EuclideanRow(std::span<const float> query, const QueryContext& ctx,
                     size_t row) const;

  /// ||dequantized row||^2 as stored at encode time (cosine denominators).
  float NormSq(size_t row) const;

  /// Address of the row's code block (prefetch target for the search
  /// loops); null when disabled.
  const void* RowData(size_t row) const;

  /// Reconstructs the dequantized row (test/debug path; the search loops
  /// never materialize it).
  void Dequantize(size_t row, std::span<float> out) const;

  /// Max absolute per-component int8 reconstruction error for `vec`: half
  /// the quantization step, (max - min) / 254 / 2. The fuzz suite asserts
  /// quantize -> dequantize stays within this (plus fp slack).
  static float Int8ErrorBound(std::span<const float> vec);

  /// Appends the quant sections to an index artifact being assembled.
  /// Call only when enabled().
  void AppendSections(util::ArtifactWriter* artifact) const;

  /// Loads the quant sections written by AppendSections, validating mode,
  /// dim and row count against the host index's metadata. Slabs bind
  /// zero-copy onto their loaded sections when aligned, exactly like the
  /// fp32 slabs.
  util::Status LoadSections(const util::ArtifactReader& artifact,
                            Quantization expected_mode, size_t expected_dim,
                            size_t expected_rows);

  /// Materializes owned copies of any views of a loaded artifact (the
  /// index CoW path calls this before mutating a loaded index).
  void EnsureOwned();

  /// Room for `rows` rows in all, so appends up to that count move no
  /// buffer; a view materializes once, at that capacity. No-op when
  /// disabled.
  void Reserve(size_t rows);

  /// An owned copy with room for `rows` rows in all (at least size()), each
  /// buffer made in one allocation, whether this store's are views or owned.
  QuantizedStore CopyWithCapacity(size_t rows) const;

  void clear();

  /// Logical bytes of the quantized representation (codes + params),
  /// independent of view/owned state — the "quantized_bytes" the memory
  /// accounting reports.
  size_t CodeBytes() const;

  /// Heap bytes this store owns privately (0 while its slabs are views of
  /// a loaded artifact's sections, which the views share).
  size_t OwnedBytes() const;

 private:
  void AppendInt8(std::span<const float> vec);
  void AppendFp16(std::span<const float> vec);

  Quantization mode_ = Quantization::kNone;
  size_t dim_ = 0;
  util::CowSlab<int8_t> i8_codes_;     ///< kInt8: rows * dim codes.
  util::CowSlab<uint16_t> f16_codes_;  ///< kFp16: rows * dim halfs.
  util::CowSlab<float> params_;        ///< rows * kParamStride.
};

}  // namespace multiem::ann

#endif  // MULTIEM_ANN_QUANT_H_
