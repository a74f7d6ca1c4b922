#include "ann/quant.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

namespace multiem::ann {

std::string_view QuantizationName(Quantization q) {
  switch (q) {
    case Quantization::kNone:
      return "none";
    case Quantization::kInt8:
      return "int8";
    case Quantization::kFp16:
      return "fp16";
  }
  return "unknown";
}

bool ParseQuantization(std::string_view name, Quantization* out) {
  if (name == "none") {
    *out = Quantization::kNone;
  } else if (name == "int8") {
    *out = Quantization::kInt8;
  } else if (name == "fp16") {
    *out = Quantization::kFp16;
  } else {
    return false;
  }
  return true;
}

uint16_t FloatToHalf(float value) {
  uint32_t f;
  std::memcpy(&f, &value, sizeof(f));
  const uint32_t sign = (f >> 16) & 0x8000u;
  const uint32_t f_exp = (f >> 23) & 0xffu;
  uint32_t mant = f & 0x007fffffu;

  if (f_exp == 0xffu) {
    // Inf / NaN. Quiet any NaN (set the top mantissa bit) so signalling
    // payloads that do not survive the 13-bit truncation cannot collapse
    // into an inf pattern.
    const uint32_t half_mant = mant ? (0x0200u | (mant >> 13)) : 0u;
    return static_cast<uint16_t>(sign | 0x7c00u | half_mant);
  }

  // Re-bias to half's exponent (15).
  const int32_t exp = static_cast<int32_t>(f_exp) - 127 + 15;
  if (exp >= 0x1f) {
    return static_cast<uint16_t>(sign | 0x7c00u);  // overflow -> inf
  }
  if (exp <= 0) {
    // Half subnormal (or zero). Below 2^-25 even round-up cannot reach the
    // smallest subnormal, so the value flushes to signed zero.
    if (exp < -10) return static_cast<uint16_t>(sign);
    mant |= 0x00800000u;  // make the implicit bit explicit
    const uint32_t shift = static_cast<uint32_t>(14 - exp);  // 14..24
    uint32_t half_mant = mant >> shift;
    const uint32_t round_bit = 1u << (shift - 1);
    // Round to nearest, ties to even.
    if ((mant & round_bit) &&
        ((mant & (round_bit - 1u)) || (half_mant & 1u))) {
      ++half_mant;  // may carry into the exponent: 0x400 == smallest normal
    }
    return static_cast<uint16_t>(sign | half_mant);
  }

  uint32_t half_mant = mant >> 13;
  uint32_t half_exp = static_cast<uint32_t>(exp);
  const uint32_t round_bit = 0x1000u;
  if ((mant & round_bit) && ((mant & (round_bit - 1u)) || (half_mant & 1u))) {
    if (++half_mant == 0x400u) {
      half_mant = 0;
      if (++half_exp >= 0x1fu) return static_cast<uint16_t>(sign | 0x7c00u);
    }
  }
  return static_cast<uint16_t>(sign | (half_exp << 10) | half_mant);
}

float HalfToFloat(uint16_t bits) {
  const uint32_t sign = static_cast<uint32_t>(bits & 0x8000u) << 16;
  const uint32_t exp = (bits >> 10) & 0x1fu;
  uint32_t mant = bits & 0x3ffu;
  uint32_t f;
  if (exp == 0) {
    if (mant == 0) {
      f = sign;  // signed zero
    } else {
      // Normalize the subnormal: shift until the implicit bit appears.
      int shifts = 0;
      do {
        ++shifts;
        mant <<= 1;
      } while (!(mant & 0x400u));
      mant &= 0x3ffu;
      f = sign | (static_cast<uint32_t>(127 - 15 - shifts + 1) << 23) |
          (mant << 13);
    }
  } else if (exp == 0x1fu) {
    f = sign | 0x7f800000u | (mant << 13);
  } else {
    f = sign | ((exp - 15 + 127) << 23) | (mant << 13);
  }
  float out;
  std::memcpy(&out, &f, sizeof(out));
  return out;
}

float DotI8Scalar(std::span<const float> q, std::span<const int8_t> codes) {
  const size_t n = q.size();
  size_t i = 0;
  // Four independent accumulators, mirroring embed::Dot's scalar path.
  float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
  for (; i + 4 <= n; i += 4) {
    acc0 += q[i] * static_cast<float>(codes[i]);
    acc1 += q[i + 1] * static_cast<float>(codes[i + 1]);
    acc2 += q[i + 2] * static_cast<float>(codes[i + 2]);
    acc3 += q[i + 3] * static_cast<float>(codes[i + 3]);
  }
  for (; i < n; ++i) acc0 += q[i] * static_cast<float>(codes[i]);
  return (acc0 + acc1) + (acc2 + acc3);
}

float DotF16Scalar(std::span<const float> q, std::span<const uint16_t> codes) {
  const size_t n = q.size();
  size_t i = 0;
  float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
  for (; i + 4 <= n; i += 4) {
    acc0 += q[i] * HalfToFloat(codes[i]);
    acc1 += q[i + 1] * HalfToFloat(codes[i + 1]);
    acc2 += q[i + 2] * HalfToFloat(codes[i + 2]);
    acc3 += q[i + 3] * HalfToFloat(codes[i + 3]);
  }
  for (; i < n; ++i) acc0 += q[i] * HalfToFloat(codes[i]);
  return (acc0 + acc1) + (acc2 + acc3);
}

float EuclideanSqF16Scalar(std::span<const float> q,
                           std::span<const uint16_t> codes) {
  const size_t n = q.size();
  size_t i = 0;
  float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
  for (; i + 4 <= n; i += 4) {
    const float d0 = q[i] - HalfToFloat(codes[i]);
    const float d1 = q[i + 1] - HalfToFloat(codes[i + 1]);
    const float d2 = q[i + 2] - HalfToFloat(codes[i + 2]);
    const float d3 = q[i + 3] - HalfToFloat(codes[i + 3]);
    acc0 += d0 * d0;
    acc1 += d1 * d1;
    acc2 += d2 * d2;
    acc3 += d3 * d3;
  }
  for (; i < n; ++i) {
    const float d = q[i] - HalfToFloat(codes[i]);
    acc0 += d * d;
  }
  return (acc0 + acc1) + (acc2 + acc3);
}

#if defined(__AVX2__) && defined(__FMA__)

namespace {

// 8 int8 codes -> 8 fp32 lanes.
inline __m256 LoadI8x8(const int8_t* p) {
  const __m128i raw =
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
  return _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(raw));
}

inline float SumLanes(__m256 a, __m256 b, __m256 c, __m256 d) {
  const __m256 sum = _mm256_add_ps(_mm256_add_ps(a, b), _mm256_add_ps(c, d));
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, sum);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3] + lanes[4] + lanes[5] +
         lanes[6] + lanes[7];
}

}  // namespace

float DotI8Simd(std::span<const float> q, std::span<const int8_t> codes) {
  const size_t n = q.size();
  size_t i = 0;
  __m256 acc_a = _mm256_setzero_ps();
  __m256 acc_b = _mm256_setzero_ps();
  __m256 acc_c = _mm256_setzero_ps();
  __m256 acc_d = _mm256_setzero_ps();
  for (; i + 32 <= n; i += 32) {
    acc_a = _mm256_fmadd_ps(_mm256_loadu_ps(q.data() + i),
                            LoadI8x8(codes.data() + i), acc_a);
    acc_b = _mm256_fmadd_ps(_mm256_loadu_ps(q.data() + i + 8),
                            LoadI8x8(codes.data() + i + 8), acc_b);
    acc_c = _mm256_fmadd_ps(_mm256_loadu_ps(q.data() + i + 16),
                            LoadI8x8(codes.data() + i + 16), acc_c);
    acc_d = _mm256_fmadd_ps(_mm256_loadu_ps(q.data() + i + 24),
                            LoadI8x8(codes.data() + i + 24), acc_d);
  }
  for (; i + 8 <= n; i += 8) {
    acc_a = _mm256_fmadd_ps(_mm256_loadu_ps(q.data() + i),
                            LoadI8x8(codes.data() + i), acc_a);
  }
  float acc = SumLanes(acc_a, acc_b, acc_c, acc_d);
  for (; i < n; ++i) acc += q[i] * static_cast<float>(codes[i]);
  return acc;
}

#if defined(__F16C__)

namespace {

// 8 binary16 codes -> 8 fp32 lanes (VCVTPH2PS: exact widening, identical to
// HalfToFloat on every finite and non-finite input).
inline __m256 LoadF16x8(const uint16_t* p) {
  return _mm256_cvtph_ps(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

}  // namespace

float DotF16Simd(std::span<const float> q, std::span<const uint16_t> codes) {
  const size_t n = q.size();
  size_t i = 0;
  __m256 acc_a = _mm256_setzero_ps();
  __m256 acc_b = _mm256_setzero_ps();
  __m256 acc_c = _mm256_setzero_ps();
  __m256 acc_d = _mm256_setzero_ps();
  for (; i + 32 <= n; i += 32) {
    acc_a = _mm256_fmadd_ps(_mm256_loadu_ps(q.data() + i),
                            LoadF16x8(codes.data() + i), acc_a);
    acc_b = _mm256_fmadd_ps(_mm256_loadu_ps(q.data() + i + 8),
                            LoadF16x8(codes.data() + i + 8), acc_b);
    acc_c = _mm256_fmadd_ps(_mm256_loadu_ps(q.data() + i + 16),
                            LoadF16x8(codes.data() + i + 16), acc_c);
    acc_d = _mm256_fmadd_ps(_mm256_loadu_ps(q.data() + i + 24),
                            LoadF16x8(codes.data() + i + 24), acc_d);
  }
  for (; i + 8 <= n; i += 8) {
    acc_a = _mm256_fmadd_ps(_mm256_loadu_ps(q.data() + i),
                            LoadF16x8(codes.data() + i), acc_a);
  }
  float acc = SumLanes(acc_a, acc_b, acc_c, acc_d);
  for (; i < n; ++i) acc += q[i] * HalfToFloat(codes[i]);
  return acc;
}

float EuclideanSqF16Simd(std::span<const float> q,
                         std::span<const uint16_t> codes) {
  const size_t n = q.size();
  size_t i = 0;
  __m256 acc_a = _mm256_setzero_ps();
  __m256 acc_b = _mm256_setzero_ps();
  __m256 acc_c = _mm256_setzero_ps();
  __m256 acc_d = _mm256_setzero_ps();
  for (; i + 32 <= n; i += 32) {
    const __m256 d0 = _mm256_sub_ps(_mm256_loadu_ps(q.data() + i),
                                    LoadF16x8(codes.data() + i));
    const __m256 d1 = _mm256_sub_ps(_mm256_loadu_ps(q.data() + i + 8),
                                    LoadF16x8(codes.data() + i + 8));
    const __m256 d2 = _mm256_sub_ps(_mm256_loadu_ps(q.data() + i + 16),
                                    LoadF16x8(codes.data() + i + 16));
    const __m256 d3 = _mm256_sub_ps(_mm256_loadu_ps(q.data() + i + 24),
                                    LoadF16x8(codes.data() + i + 24));
    acc_a = _mm256_fmadd_ps(d0, d0, acc_a);
    acc_b = _mm256_fmadd_ps(d1, d1, acc_b);
    acc_c = _mm256_fmadd_ps(d2, d2, acc_c);
    acc_d = _mm256_fmadd_ps(d3, d3, acc_d);
  }
  for (; i + 8 <= n; i += 8) {
    const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(q.data() + i),
                                   LoadF16x8(codes.data() + i));
    acc_a = _mm256_fmadd_ps(d, d, acc_a);
  }
  float acc = SumLanes(acc_a, acc_b, acc_c, acc_d);
  for (; i < n; ++i) {
    const float d = q[i] - HalfToFloat(codes[i]);
    acc += d * d;
  }
  return acc;
}

#else  // AVX2 without F16C: fp16 kernels stay scalar.

float DotF16Simd(std::span<const float> q, std::span<const uint16_t> codes) {
  return DotF16Scalar(q, codes);
}

float EuclideanSqF16Simd(std::span<const float> q,
                         std::span<const uint16_t> codes) {
  return EuclideanSqF16Scalar(q, codes);
}

#endif  // __F16C__

bool QuantSimdEnabled() { return true; }

#else  // no AVX2+FMA: every Simd form is the scalar form.

float DotI8Simd(std::span<const float> q, std::span<const int8_t> codes) {
  return DotI8Scalar(q, codes);
}

float DotF16Simd(std::span<const float> q, std::span<const uint16_t> codes) {
  return DotF16Scalar(q, codes);
}

float EuclideanSqF16Simd(std::span<const float> q,
                         std::span<const uint16_t> codes) {
  return EuclideanSqF16Scalar(q, codes);
}

bool QuantSimdEnabled() { return false; }

#endif  // __AVX2__ && __FMA__

float DotI8(std::span<const float> q, std::span<const int8_t> codes) {
  return DotI8Simd(q, codes);
}

float DotF16(std::span<const float> q, std::span<const uint16_t> codes) {
  return DotF16Simd(q, codes);
}

float EuclideanSqF16(std::span<const float> q,
                     std::span<const uint16_t> codes) {
  return EuclideanSqF16Simd(q, codes);
}

void QuantizedStore::Reset(Quantization mode, size_t dim) {
  mode_ = mode;
  dim_ = dim;
  i8_codes_.clear();
  f16_codes_.clear();
  params_.clear();
}

size_t QuantizedStore::size() const {
  if (dim_ == 0) return 0;
  switch (mode_) {
    case Quantization::kNone:
      return 0;
    case Quantization::kInt8:
      return i8_codes_.size() / dim_;
    case Quantization::kFp16:
      return f16_codes_.size() / dim_;
  }
  return 0;
}

void QuantizedStore::Append(std::span<const float> vec) {
  if (mode_ == Quantization::kNone) return;
  if (vec.size() != dim_) std::abort();
  if (mode_ == Quantization::kInt8) {
    AppendInt8(vec);
  } else {
    AppendFp16(vec);
  }
}

void QuantizedStore::AppendInt8(std::span<const float> vec) {
  float lo = vec[0];
  float hi = vec[0];
  for (float x : vec) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  // Affine map of [lo, hi] onto the symmetric code range [-127, 127]:
  // x_hat = mid + scale * code. A constant vector degenerates to scale 0
  // with every code 0, decoding exactly to mid.
  const float mid = lo + (hi - lo) * 0.5f;
  float scale = (hi - lo) / 254.0f;
  if (!(scale > 0.0f) || !std::isfinite(scale)) scale = 0.0f;
  const float inv_scale = scale > 0.0f ? 1.0f / scale : 0.0f;

  const size_t base = i8_codes_.size();
  i8_codes_.resize(base + dim_);
  int8_t* codes = i8_codes_.data() + base;
  double norm_sq = 0.0;
  for (size_t d = 0; d < dim_; ++d) {
    float c = std::nearbyint((vec[d] - mid) * inv_scale);
    c = std::clamp(c, -127.0f, 127.0f);
    codes[d] = static_cast<int8_t>(c);
    const float decoded = mid + scale * c;
    norm_sq += static_cast<double>(decoded) * static_cast<double>(decoded);
  }
  params_.push_back(scale);
  params_.push_back(mid);
  params_.push_back(static_cast<float>(norm_sq));
  params_.push_back(0.0f);
}

void QuantizedStore::AppendFp16(std::span<const float> vec) {
  const size_t base = f16_codes_.size();
  f16_codes_.resize(base + dim_);
  uint16_t* codes = f16_codes_.data() + base;
  double norm_sq = 0.0;
  for (size_t d = 0; d < dim_; ++d) {
    codes[d] = FloatToHalf(vec[d]);
    const float decoded = HalfToFloat(codes[d]);
    norm_sq += static_cast<double>(decoded) * static_cast<double>(decoded);
  }
  params_.push_back(0.0f);
  params_.push_back(0.0f);
  params_.push_back(static_cast<float>(norm_sq));
  params_.push_back(0.0f);
}

QuantizedStore::QueryContext QuantizedStore::Prepare(
    std::span<const float> query) {
  QueryContext ctx;
  float sum0 = 0.0f, sum1 = 0.0f;
  float sq0 = 0.0f, sq1 = 0.0f;
  size_t i = 0;
  const size_t n = query.size();
  for (; i + 2 <= n; i += 2) {
    sum0 += query[i];
    sum1 += query[i + 1];
    sq0 += query[i] * query[i];
    sq1 += query[i + 1] * query[i + 1];
  }
  if (i < n) {
    sum0 += query[i];
    sq0 += query[i] * query[i];
  }
  ctx.sum = sum0 + sum1;
  ctx.norm_sq = sq0 + sq1;
  return ctx;
}

float QuantizedStore::DotRow(std::span<const float> query,
                             const QueryContext& ctx, size_t row) const {
  if (mode_ == Quantization::kInt8) {
    const float* p = params_.data() + row * kParamStride;
    const std::span<const int8_t> codes(i8_codes_.data() + row * dim_, dim_);
    return p[1] * ctx.sum + p[0] * DotI8(query, codes);
  }
  const std::span<const uint16_t> codes(f16_codes_.data() + row * dim_, dim_);
  return DotF16(query, codes);
}

float QuantizedStore::EuclideanRow(std::span<const float> query,
                                   const QueryContext& ctx, size_t row) const {
  if (mode_ == Quantization::kInt8) {
    // Norm identity instead of a materialized difference: the codes are
    // never dequantized on the search path.
    const float d2 =
        ctx.norm_sq - 2.0f * DotRow(query, ctx, row) + NormSq(row);
    return std::sqrt(std::max(d2, 0.0f));
  }
  const std::span<const uint16_t> codes(f16_codes_.data() + row * dim_, dim_);
  return std::sqrt(EuclideanSqF16(query, codes));
}

float QuantizedStore::NormSq(size_t row) const {
  return params_[row * kParamStride + 2];
}

const void* QuantizedStore::RowData(size_t row) const {
  switch (mode_) {
    case Quantization::kNone:
      return nullptr;
    case Quantization::kInt8:
      return i8_codes_.data() + row * dim_;
    case Quantization::kFp16:
      return f16_codes_.data() + row * dim_;
  }
  return nullptr;
}

void QuantizedStore::Dequantize(size_t row, std::span<float> out) const {
  if (out.size() != dim_) std::abort();
  if (mode_ == Quantization::kInt8) {
    const float* p = params_.data() + row * kParamStride;
    const int8_t* codes = i8_codes_.data() + row * dim_;
    for (size_t d = 0; d < dim_; ++d) {
      out[d] = p[1] + p[0] * static_cast<float>(codes[d]);
    }
    return;
  }
  const uint16_t* codes = f16_codes_.data() + row * dim_;
  for (size_t d = 0; d < dim_; ++d) out[d] = HalfToFloat(codes[d]);
}

float QuantizedStore::Int8ErrorBound(std::span<const float> vec) {
  float lo = vec.empty() ? 0.0f : vec[0];
  float hi = lo;
  for (float x : vec) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  return (hi - lo) / 254.0f * 0.5f;
}

void QuantizedStore::AppendSections(util::ArtifactWriter* artifact) const {
  util::ByteWriter& meta = artifact->AddSection(std::string(kQuantMetaSection));
  meta.WriteU8(static_cast<uint8_t>(mode_));
  meta.WriteU64(dim_);
  meta.WriteU64(size());
  util::ByteWriter& codes =
      artifact->AddSection(std::string(kQuantCodesSection));
  if (mode_ == Quantization::kInt8) {
    codes.WriteI8Array(i8_codes_.span());
  } else {
    codes.WriteU16Array(f16_codes_.span());
  }
  artifact->AddSection(std::string(kQuantParamsSection))
      .WriteF32Array(params_.span());
}

util::Status QuantizedStore::LoadSections(
    const util::ArtifactReader& artifact, Quantization expected_mode,
    size_t expected_dim, size_t expected_rows) {
  auto meta = artifact.Section(kQuantMetaSection);
  if (!meta.ok()) return meta.status();
  uint8_t mode_byte;
  uint64_t dim, rows;
  MULTIEM_RETURN_IF_ERROR(meta->ReadU8(&mode_byte));
  MULTIEM_RETURN_IF_ERROR(meta->ReadU64(&dim));
  MULTIEM_RETURN_IF_ERROR(meta->ReadU64(&rows));
  MULTIEM_RETURN_IF_ERROR(meta->ExpectExhausted());
  if (mode_byte != static_cast<uint8_t>(expected_mode) ||
      mode_byte == static_cast<uint8_t>(Quantization::kNone) ||
      mode_byte > static_cast<uint8_t>(Quantization::kFp16)) {
    return util::Status::InvalidArgument(
        "quantized store: mode byte " + std::to_string(mode_byte) +
        " does not match the index's quantization '" +
        std::string(QuantizationName(expected_mode)) + "'");
  }
  if (dim != expected_dim || rows != expected_rows) {
    return util::Status::InvalidArgument(
        "quantized store: meta claims " + std::to_string(rows) +
        " rows of dim " + std::to_string(dim) + ", index holds " +
        std::to_string(expected_rows) + " of dim " +
        std::to_string(expected_dim));
  }
  Reset(expected_mode, expected_dim);

  auto codes = artifact.Section(kQuantCodesSection);
  if (!codes.ok()) return codes.status();
  size_t code_count = 0;
  if (mode_ == Quantization::kInt8) {
    MULTIEM_RETURN_IF_ERROR(codes->ReadArrayCow(&i8_codes_));
    code_count = i8_codes_.size();
  } else {
    MULTIEM_RETURN_IF_ERROR(codes->ReadArrayCow(&f16_codes_));
    code_count = f16_codes_.size();
  }
  MULTIEM_RETURN_IF_ERROR(codes->ExpectExhausted());
  // Division form so a crafted dim cannot wrap rows * dim (same defense as
  // the fp32 vector slab check).
  if (expected_dim == 0 || code_count % expected_dim != 0 ||
      code_count / expected_dim != expected_rows) {
    return util::Status::InvalidArgument(
        "quantized store: code slab holds " + std::to_string(code_count) +
        " codes, want " + std::to_string(expected_rows) + " rows of dim " +
        std::to_string(expected_dim));
  }

  auto params = artifact.Section(kQuantParamsSection);
  if (!params.ok()) return params.status();
  MULTIEM_RETURN_IF_ERROR(params->ReadArrayCow(&params_));
  MULTIEM_RETURN_IF_ERROR(params->ExpectExhausted());
  if (params_.size() != expected_rows * kParamStride) {
    return util::Status::InvalidArgument(
        "quantized store: params slab holds " +
        std::to_string(params_.size()) + " floats, want " +
        std::to_string(expected_rows * kParamStride));
  }
  // Read through the const accessor: the non-const data() overload would
  // copy-on-write the freshly bound view and defeat the zero-copy open.
  const float* all_params = std::as_const(params_).data();
  for (size_t row = 0; row < expected_rows; ++row) {
    const float* p = all_params + row * kParamStride;
    if (!std::isfinite(p[0]) || !std::isfinite(p[1]) || !std::isfinite(p[2]) ||
        p[0] < 0.0f || p[2] < 0.0f) {
      return util::Status::InvalidArgument(
          "quantized store: non-finite or negative parameters at row " +
          std::to_string(row));
    }
  }
  return util::Status::Ok();
}

void QuantizedStore::EnsureOwned() {
  i8_codes_.EnsureOwned();
  f16_codes_.EnsureOwned();
  params_.EnsureOwned();
}

void QuantizedStore::Reserve(size_t rows) {
  if (mode_ == Quantization::kInt8) i8_codes_.reserve(rows * dim_);
  if (mode_ == Quantization::kFp16) f16_codes_.reserve(rows * dim_);
  if (enabled()) params_.reserve(rows * kParamStride);
}

QuantizedStore QuantizedStore::CopyWithCapacity(size_t rows) const {
  QuantizedStore copy;
  copy.Reset(mode_, dim_);
  if (mode_ == Quantization::kInt8) {
    copy.i8_codes_ = i8_codes_.CopyWithCapacity(rows * dim_);
  }
  if (mode_ == Quantization::kFp16) {
    copy.f16_codes_ = f16_codes_.CopyWithCapacity(rows * dim_);
  }
  if (enabled()) copy.params_ = params_.CopyWithCapacity(rows * kParamStride);
  return copy;
}

void QuantizedStore::clear() {
  i8_codes_.clear();
  f16_codes_.clear();
  params_.clear();
}

size_t QuantizedStore::CodeBytes() const {
  return i8_codes_.size() * sizeof(int8_t) +
         f16_codes_.size() * sizeof(uint16_t) + params_.size() * sizeof(float);
}

size_t QuantizedStore::OwnedBytes() const {
  return i8_codes_.OwnedBytes() + f16_codes_.OwnedBytes() +
         params_.OwnedBytes();
}

}  // namespace multiem::ann
