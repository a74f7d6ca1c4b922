// Quantized-store tests: the fp16 conversion routines (exhaustive
// round-trip plus round-to-nearest-even spot checks), SIMD-vs-scalar parity
// fuzzing for every int8/fp16 distance kernel (odd dims, extreme scales,
// degenerate vectors), the quantize -> dequantize error bounds the rerank
// contract rests on, the MEMINDEX v2 artifact (byte-stable round trips,
// zero-copy mmap, corruption rejection through heap and mapped opens, and
// the checked-in v1 fp32 goldens that must keep loading), recall@10 of the
// quantized indexes against the fp32 brute-force oracle, and the split
// fp32/quantized memory accounting behind the >= 3x hot-bytes gate.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "ann/brute_force.h"
#include "ann/hnsw.h"
#include "ann/index_io.h"
#include "ann/quant.h"
#include "core/config.h"
#include "embed/embedding.h"
#include "util/io.h"
#include "util/rng.h"

namespace multiem {
namespace {

std::string TempPath(const std::string& name) {
  std::string path = ::testing::TempDir() + "multiem_quant_" + name;
  std::filesystem::remove_all(path);
  return path;
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path,
                    const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

embed::EmbeddingMatrix RandomVectors(size_t n, size_t dim, uint64_t seed) {
  util::Rng rng(seed);
  embed::EmbeddingMatrix m(n, dim);
  for (size_t i = 0; i < n; ++i) {
    auto row = m.Row(i);
    for (auto& x : row) x = static_cast<float>(rng.Normal());
    embed::L2NormalizeInPlace(row);
  }
  return m;
}

// ------------------------------------------------------ fp16 conversion --

TEST(HalfTest, ExhaustiveRoundTripThroughFloat) {
  // Every binary16 value widens exactly to binary32, so narrowing it back
  // must reproduce the original bits (NaNs only need to stay NaN; the
  // quieting bit may differ from the payload).
  for (uint32_t h = 0; h <= 0xFFFF; ++h) {
    const uint16_t half = static_cast<uint16_t>(h);
    const float f = ann::HalfToFloat(half);
    const uint16_t back = ann::FloatToHalf(f);
    const bool is_nan = (half & 0x7C00) == 0x7C00 && (half & 0x03FF) != 0;
    if (is_nan) {
      EXPECT_TRUE(std::isnan(f)) << "half 0x" << std::hex << h;
      EXPECT_EQ(back & 0x7C00, 0x7C00) << "half 0x" << std::hex << h;
      EXPECT_NE(back & 0x03FF, 0) << "half 0x" << std::hex << h;
    } else {
      EXPECT_EQ(back, half) << "half 0x" << std::hex << h << " widened to "
                            << f;
    }
  }
}

TEST(HalfTest, KnownValuesAndRounding) {
  EXPECT_EQ(ann::FloatToHalf(0.0f), 0x0000);
  EXPECT_EQ(ann::FloatToHalf(-0.0f), 0x8000);
  EXPECT_EQ(ann::FloatToHalf(1.0f), 0x3C00);
  EXPECT_EQ(ann::FloatToHalf(-2.0f), 0xC000);
  EXPECT_EQ(ann::FloatToHalf(65504.0f), 0x7BFF);  // max finite half
  EXPECT_EQ(ann::FloatToHalf(std::numeric_limits<float>::infinity()), 0x7C00);
  EXPECT_EQ(ann::FloatToHalf(-std::numeric_limits<float>::infinity()), 0xFC00);
  // 65520 is the midpoint between 65504 and the first overflow step; RNE
  // rounds it up and out of range.
  EXPECT_EQ(ann::FloatToHalf(65520.0f), 0x7C00);
  EXPECT_EQ(ann::FloatToHalf(65519.0f), 0x7BFF);

  // Ties to even in the normal range (ulp at 1.0 is 2^-10): 1 + 2^-11 sits
  // exactly between 1.0 (0x3C00, even) and 1 + 2^-10 (0x3C01, odd), and
  // 1 + 3 * 2^-11 between 0x3C01 and 0x3C02 (even).
  EXPECT_EQ(ann::FloatToHalf(1.0f + 0x1.0p-11f), 0x3C00);
  EXPECT_EQ(ann::FloatToHalf(1.0f + 0x1.8p-10f), 0x3C02);
  EXPECT_EQ(ann::FloatToHalf(1.0f + 0x1.8p-11f), 0x3C01);  // 0.75 ulp up

  // Subnormals: 2^-24 is the smallest positive half; half of it ties back
  // to zero, three quarters rounds up.
  EXPECT_EQ(ann::HalfToFloat(0x0001), 0x1.0p-24f);
  EXPECT_EQ(ann::FloatToHalf(0x1.0p-24f), 0x0001);
  EXPECT_EQ(ann::FloatToHalf(0x1.0p-25f), 0x0000);
  EXPECT_EQ(ann::FloatToHalf(0x1.8p-25f), 0x0001);
  EXPECT_EQ(ann::FloatToHalf(-0x1.0p-26f), 0x8000);

  const uint16_t nan = ann::FloatToHalf(std::numeric_limits<float>::quiet_NaN());
  EXPECT_EQ(nan & 0x7C00, 0x7C00);
  EXPECT_NE(nan & 0x03FF, 0);
}

// --------------------------------------------------- SIMD/scalar parity --

// The dims the fuzz sweep covers: 1 and 7 never reach a SIMD stride, 31/383
// end mid-stride with both the 8-wide cleanup and a scalar tail, 8/32/384
// are exact stride multiples, 385 adds a lone tail lane.
const size_t kFuzzDims[] = {1, 7, 8, 31, 32, 383, 384, 385};

// Query-value regimes the fuzz sweep multiplies in: around 1, tiny, huge,
// and mixed-magnitude (the "extreme scales" case — products span ~60
// orders of magnitude, so accumulation-order error is maximized).
float FuzzScale(util::Rng& rng, int regime) {
  switch (regime) {
    case 0: return 1.0f;
    case 1: return 1e-20f;
    case 2: return 1e18f;
    default:
      return static_cast<float>(
          std::pow(10.0, rng.UniformDouble() * 40.0 - 20.0));
  }
}

// Scalar and SIMD accumulate in different orders, so they agree to a
// relative error of O(dim * eps_f32) against the magnitude of the summed
// terms (not of the result, which cancellation can make arbitrarily
// small). `terms_abs` is sum(|term_i|) in double.
void ExpectKernelClose(float a, float b, double terms_abs, size_t dim,
                       const char* what) {
  const double tol =
      terms_abs * static_cast<double>(dim + 8) * 1.2e-7 + 1e-30;
  EXPECT_NEAR(a, b, tol) << what << " dim=" << dim;
}

TEST(QuantKernelParityTest, DotI8ScalarVsSimd) {
  util::Rng rng(101);
  for (size_t dim : kFuzzDims) {
    for (int trial = 0; trial < 24; ++trial) {
      const float scale = FuzzScale(rng, trial % 4);
      std::vector<float> q(dim);
      std::vector<int8_t> codes(dim);
      double terms_abs = 0.0;
      for (size_t d = 0; d < dim; ++d) {
        q[d] = static_cast<float>(rng.Normal()) * scale;
        codes[d] = static_cast<int8_t>(rng.UniformInt(-127, 127));
        terms_abs += std::abs(static_cast<double>(q[d]) * codes[d]);
      }
      const float s = ann::DotI8Scalar(q, codes);
      const float v = ann::DotI8Simd(q, codes);
      const float dispatched = ann::DotI8(q, codes);
      ExpectKernelClose(s, v, terms_abs, dim, "DotI8");
      EXPECT_EQ(dispatched, ann::QuantSimdEnabled() ? v : s);
    }
  }
}

TEST(QuantKernelParityTest, DotF16ScalarVsSimd) {
  util::Rng rng(202);
  for (size_t dim : kFuzzDims) {
    for (int trial = 0; trial < 24; ++trial) {
      const float scale = FuzzScale(rng, trial % 4);
      std::vector<float> q(dim);
      std::vector<uint16_t> codes(dim);
      double terms_abs = 0.0;
      for (size_t d = 0; d < dim; ++d) {
        q[d] = static_cast<float>(rng.Normal()) * scale;
        codes[d] = ann::FloatToHalf(static_cast<float>(rng.Normal()) * 8.0f);
        terms_abs += std::abs(static_cast<double>(q[d]) *
                              ann::HalfToFloat(codes[d]));
      }
      const float s = ann::DotF16Scalar(q, codes);
      const float v = ann::DotF16Simd(q, codes);
      ExpectKernelClose(s, v, terms_abs, dim, "DotF16");
      EXPECT_EQ(ann::DotF16(q, codes), ann::QuantSimdEnabled() ? v : s);
    }
  }
}

TEST(QuantKernelParityTest, EuclideanSqF16ScalarVsSimd) {
  util::Rng rng(303);
  for (size_t dim : kFuzzDims) {
    for (int trial = 0; trial < 24; ++trial) {
      const float scale = FuzzScale(rng, trial % 4);
      std::vector<float> q(dim);
      std::vector<uint16_t> codes(dim);
      double terms_abs = 0.0;
      for (size_t d = 0; d < dim; ++d) {
        q[d] = static_cast<float>(rng.Normal()) * scale;
        codes[d] = ann::FloatToHalf(static_cast<float>(rng.Normal()));
        const double diff =
            static_cast<double>(q[d]) - ann::HalfToFloat(codes[d]);
        terms_abs += diff * diff;
      }
      const float s = ann::EuclideanSqF16Scalar(q, codes);
      const float v = ann::EuclideanSqF16Simd(q, codes);
      if (std::isinf(s) || std::isinf(v)) {
        // The squared sum overflowed fp32 (huge-scale regime): both
        // accumulation orders must saturate to the same infinity.
        EXPECT_EQ(s, v) << "EuclideanSqF16 overflow dim=" << dim;
      } else {
        ExpectKernelClose(s, v, terms_abs, dim, "EuclideanSqF16");
      }
      EXPECT_EQ(ann::EuclideanSqF16(q, codes),
                ann::QuantSimdEnabled() ? v : s);
    }
  }
}

TEST(QuantKernelParityTest, DegenerateVectorsAgreeExactly) {
  // All-zero and constant inputs produce identical partial sums in any
  // accumulation order, so scalar and SIMD must agree bitwise.
  for (size_t dim : kFuzzDims) {
    const std::vector<float> zeros(dim, 0.0f);
    const std::vector<float> sevens(dim, 7.0f);
    const std::vector<int8_t> zero_codes(dim, 0);
    const std::vector<int8_t> const_codes(dim, 55);
    const std::vector<uint16_t> half_ones(dim, ann::FloatToHalf(1.0f));

    EXPECT_EQ(ann::DotI8Scalar(zeros, const_codes),
              ann::DotI8Simd(zeros, const_codes));
    EXPECT_EQ(ann::DotI8Scalar(sevens, zero_codes),
              ann::DotI8Simd(sevens, zero_codes));
    EXPECT_EQ(ann::DotI8Scalar(sevens, zero_codes), 0.0f);
    EXPECT_EQ(ann::DotF16Scalar(sevens, half_ones),
              ann::DotF16Simd(sevens, half_ones));
    EXPECT_EQ(ann::EuclideanSqF16Scalar(zeros, half_ones),
              ann::EuclideanSqF16Simd(zeros, half_ones));
    EXPECT_EQ(ann::EuclideanSqF16Scalar(zeros, half_ones),
              static_cast<float>(dim));
  }
}

// ----------------------------------------------------- encoding bounds --

TEST(QuantStoreTest, Int8ReconstructionWithinStatedBound) {
  util::Rng rng(404);
  for (size_t dim : {1u, 7u, 64u, 385u}) {
    for (int trial = 0; trial < 8; ++trial) {
      const float scale = FuzzScale(rng, trial % 4);
      std::vector<float> vec(dim);
      for (auto& x : vec) x = static_cast<float>(rng.Normal()) * scale;

      ann::QuantizedStore store;
      store.Reset(ann::Quantization::kInt8, dim);
      store.Append(vec);
      ASSERT_EQ(store.size(), 1u);

      std::vector<float> decoded(dim);
      store.Dequantize(0, decoded);
      // Half the quantization step, plus slack for the fp32 affine
      // arithmetic at extreme magnitudes.
      const float bound = ann::QuantizedStore::Int8ErrorBound(vec);
      for (size_t d = 0; d < dim; ++d) {
        EXPECT_LE(std::abs(vec[d] - decoded[d]),
                  bound * 1.001f + std::abs(vec[d]) * 1e-6f)
            << "dim=" << dim << " component " << d;
      }
    }
  }
}

TEST(QuantStoreTest, Int8ConstantAndZeroVectorsAreExact) {
  // A constant vector has scale 0; decode returns the midpoint, which is
  // the constant itself, so reconstruction is lossless.
  for (float c : {0.0f, 3.25f, -1e10f, 1e-20f}) {
    std::vector<float> vec(33, c);
    ann::QuantizedStore store;
    store.Reset(ann::Quantization::kInt8, vec.size());
    store.Append(vec);
    std::vector<float> decoded(vec.size());
    store.Dequantize(0, decoded);
    for (float x : decoded) EXPECT_EQ(x, c);
  }
}

TEST(QuantStoreTest, Fp16ReconstructionWithinHalfPrecision) {
  util::Rng rng(505);
  std::vector<float> vec(257);
  // Normal-range magnitudes (|x| in ~[6e-5, 6e4]): RNE binary16 keeps
  // relative error <= 2^-11; below that the absolute subnormal step
  // (2^-25 after rounding) dominates.
  for (auto& x : vec) {
    x = static_cast<float>(rng.Normal()) *
        static_cast<float>(std::pow(10.0, rng.UniformDouble() * 8.0 - 6.0));
  }
  ann::QuantizedStore store;
  store.Reset(ann::Quantization::kFp16, vec.size());
  store.Append(vec);
  std::vector<float> decoded(vec.size());
  store.Dequantize(0, decoded);
  for (size_t d = 0; d < vec.size(); ++d) {
    EXPECT_LE(std::abs(vec[d] - decoded[d]),
              std::abs(vec[d]) * 0x1.0p-11f + 0x1.0p-25f)
        << "component " << d << " = " << vec[d];
  }
}

TEST(QuantStoreTest, RowDistancesMatchDequantizedReference) {
  // DotRow / EuclideanRow / NormSq evaluated through the affine expansion
  // and the SIMD kernels must agree with naive double-precision math over
  // the dequantized rows — the identity the search loops rely on.
  util::Rng rng(606);
  const size_t dim = 96;
  const size_t rows = 40;
  for (ann::Quantization mode :
       {ann::Quantization::kInt8, ann::Quantization::kFp16}) {
    ann::QuantizedStore store;
    store.Reset(mode, dim);
    embed::EmbeddingMatrix corpus = RandomVectors(rows, dim, 707);
    for (size_t i = 0; i < rows; ++i) store.Append(corpus.Row(i));

    std::vector<float> query(dim);
    for (auto& x : query) x = static_cast<float>(rng.Normal());
    const auto ctx = ann::QuantizedStore::Prepare(query);

    std::vector<float> decoded(dim);
    for (size_t i = 0; i < rows; ++i) {
      store.Dequantize(i, decoded);
      double dot = 0.0, norm_sq = 0.0, dist_sq = 0.0;
      for (size_t d = 0; d < dim; ++d) {
        dot += static_cast<double>(query[d]) * decoded[d];
        norm_sq += static_cast<double>(decoded[d]) * decoded[d];
        const double diff = static_cast<double>(query[d]) - decoded[d];
        dist_sq += diff * diff;
      }
      EXPECT_NEAR(store.DotRow(query, ctx, i), dot, 1e-4)
          << "row " << i << " mode " << ann::QuantizationName(mode);
      EXPECT_NEAR(store.NormSq(i), norm_sq, 1e-4) << "row " << i;
      EXPECT_NEAR(store.EuclideanRow(query, ctx, i), std::sqrt(dist_sq),
                  2e-3)
          << "row " << i << " mode " << ann::QuantizationName(mode);
    }
  }
}

TEST(QuantStoreTest, ParseAndNameRoundTrip) {
  for (ann::Quantization q :
       {ann::Quantization::kNone, ann::Quantization::kInt8,
        ann::Quantization::kFp16}) {
    ann::Quantization parsed;
    ASSERT_TRUE(ann::ParseQuantization(ann::QuantizationName(q), &parsed));
    EXPECT_EQ(parsed, q);
  }
  ann::Quantization out = ann::Quantization::kInt8;
  EXPECT_FALSE(ann::ParseQuantization("int4", &out));
  EXPECT_FALSE(ann::ParseQuantization("", &out));
  EXPECT_EQ(out, ann::Quantization::kInt8);  // untouched on failure
}

TEST(QuantConfigTest, PipelineConfigValidatesQuantKnobs) {
  core::MultiEmConfig config;
  EXPECT_TRUE(config.ValidateValues().ok());
  config.quantization = "int8";
  EXPECT_TRUE(config.ValidateValues().ok());
  config.rerank_factor = 0;
  EXPECT_EQ(config.ValidateValues().code(),
            util::StatusCode::kInvalidArgument);
  config.rerank_factor = 4;
  config.quantization = "bfloat16";
  EXPECT_EQ(config.ValidateValues().code(),
            util::StatusCode::kInvalidArgument);
}

// --------------------------------------------------------- recall gate --

double RecallAt10(const ann::VectorIndex& index,
                  const ann::BruteForceIndex& oracle,
                  const embed::EmbeddingMatrix& queries) {
  const size_t k = 10;
  size_t hits = 0;
  for (size_t q = 0; q < queries.num_rows(); ++q) {
    const auto got = index.Search(queries.Row(q), k);
    const auto want = oracle.Search(queries.Row(q), k);
    std::set<size_t> want_ids;
    for (const auto& n : want) want_ids.insert(n.id);
    for (const auto& n : got) hits += want_ids.count(n.id);
  }
  return static_cast<double>(hits) /
         static_cast<double>(queries.num_rows() * k);
}

ann::HnswConfig RecallHnswConfig(ann::Quantization mode) {
  ann::HnswConfig config;
  config.ef_search = 128;
  config.seed = 11;
  config.quantization = mode;
  config.rerank_factor = 4;
  return config;
}

TEST(QuantRecallTest, QuantizedHnswKeepsRecallAtLeast95) {
  const size_t dim = 48;
  embed::EmbeddingMatrix corpus = RandomVectors(1200, dim, 808);
  embed::EmbeddingMatrix queries = RandomVectors(40, dim, 909);

  ann::BruteForceIndex oracle(dim, ann::Metric::kCosine);
  oracle.AddBatch(corpus);

  for (ann::Quantization mode :
       {ann::Quantization::kInt8, ann::Quantization::kFp16}) {
    ann::HnswIndex index(dim, ann::Metric::kCosine, RecallHnswConfig(mode));
    index.AddBatch(corpus);
    const double recall = RecallAt10(index, oracle, queries);
    EXPECT_GE(recall, 0.95) << "mode " << ann::QuantizationName(mode);
  }
}

TEST(QuantRecallTest, QuantizedBruteForceKeepsRecallAtLeast95) {
  const size_t dim = 48;
  embed::EmbeddingMatrix corpus = RandomVectors(900, dim, 1010);
  embed::EmbeddingMatrix queries = RandomVectors(40, dim, 1111);

  ann::BruteForceIndex oracle(dim, ann::Metric::kCosine);
  oracle.AddBatch(corpus);

  for (ann::Quantization mode :
       {ann::Quantization::kInt8, ann::Quantization::kFp16}) {
    ann::BruteForceIndex index(dim, ann::Metric::kCosine, mode, 4);
    index.AddBatch(corpus);
    EXPECT_GE(RecallAt10(index, oracle, queries), 0.95)
        << "mode " << ann::QuantizationName(mode);
  }
}

TEST(QuantRecallTest, QuantizedGraphIsBitIdenticalToFp32Graph) {
  // Construction always runs on the fp32 originals, so an int8 build with
  // the same seed must produce the same levels, links, and RNG trajectory
  // as the unquantized build — compare the graph sections of both saves.
  const size_t dim = 24;
  embed::EmbeddingMatrix corpus = RandomVectors(400, dim, 1212);

  ann::HnswConfig fp32_config;
  fp32_config.seed = 21;
  ann::HnswConfig int8_config = fp32_config;
  int8_config.quantization = ann::Quantization::kInt8;

  ann::HnswIndex fp32_index(dim, ann::Metric::kCosine, fp32_config);
  fp32_index.AddBatch(corpus);
  ann::HnswIndex int8_index(dim, ann::Metric::kCosine, int8_config);
  int8_index.AddBatch(corpus);

  const std::string fp32_path = TempPath("graph_fp32.mem");
  const std::string int8_path = TempPath("graph_int8.mem");
  ASSERT_TRUE(fp32_index.Save(fp32_path).ok());
  ASSERT_TRUE(int8_index.Save(int8_path).ok());

  auto fp32_artifact = util::ArtifactReader::FromFile(
      fp32_path, ann::kIndexArtifactMagic, ann::kIndexArtifactVersion);
  auto int8_artifact = util::ArtifactReader::FromFile(
      int8_path, ann::kIndexArtifactMagic, ann::kIndexArtifactVersion);
  ASSERT_TRUE(fp32_artifact.ok()) << fp32_artifact.status();
  ASSERT_TRUE(int8_artifact.ok()) << int8_artifact.status();
  EXPECT_EQ(fp32_artifact->version(), ann::kIndexArtifactVersionFp32);
  EXPECT_EQ(int8_artifact->version(), ann::kIndexArtifactVersion);

  const auto links_of = [](const util::ArtifactReader& artifact,
                           const char* section) {
    std::vector<uint32_t> links;
    auto reader = artifact.Section(section);
    EXPECT_TRUE(reader.ok()) << reader.status();
    EXPECT_TRUE(reader->ReadU32Array(&links).ok());
    return links;
  };
  const auto levels_of = [](const util::ArtifactReader& artifact) {
    std::vector<int32_t> levels;
    auto reader = artifact.Section("levels");
    EXPECT_TRUE(reader.ok()) << reader.status();
    EXPECT_TRUE(reader->ReadI32Array(&levels).ok());
    return levels;
  };
  EXPECT_EQ(levels_of(*fp32_artifact), levels_of(*int8_artifact));
  EXPECT_EQ(links_of(*fp32_artifact, "links0"),
            links_of(*int8_artifact, "links0"));
  EXPECT_EQ(links_of(*fp32_artifact, "upper_links"),
            links_of(*int8_artifact, "upper_links"));
}

// ---------------------------------------------------- memory accounting --

TEST(QuantMemoryTest, HotBytesShrinkAtLeastThreefoldAt384Dims) {
  const size_t dim = 384;
  const size_t n = 192;
  embed::EmbeddingMatrix corpus = RandomVectors(n, dim, 1313);

  ann::HnswConfig fp32_config;
  fp32_config.ef_construction = 48;
  ann::HnswConfig int8_config = fp32_config;
  int8_config.quantization = ann::Quantization::kInt8;
  ann::HnswConfig fp16_config = fp32_config;
  fp16_config.quantization = ann::Quantization::kFp16;

  ann::HnswIndex fp32_index(dim, ann::Metric::kCosine, fp32_config);
  fp32_index.AddBatch(corpus);
  ann::HnswIndex int8_index(dim, ann::Metric::kCosine, int8_config);
  int8_index.AddBatch(corpus);
  ann::HnswIndex fp16_index(dim, ann::Metric::kCosine, fp16_config);
  fp16_index.AddBatch(corpus);

  const auto fp32 = fp32_index.MemoryUsage();
  const auto int8 = int8_index.MemoryUsage();
  const auto fp16 = fp16_index.MemoryUsage();

  EXPECT_EQ(fp32.fp32_bytes, n * dim * sizeof(float));
  EXPECT_EQ(fp32.quantized_bytes, 0u);
  EXPECT_EQ(fp32.hot_bytes(), fp32.fp32_bytes + fp32.graph_bytes);

  // int8: 1 byte/dim codes + 4 params (scale, mid, norm_sq, pad) per row.
  EXPECT_EQ(int8.fp32_bytes, n * dim * sizeof(float));
  EXPECT_EQ(int8.quantized_bytes,
            n * (dim + ann::QuantizedStore::kParamStride * sizeof(float)));
  EXPECT_EQ(fp16.quantized_bytes,
            n * (dim * 2 + ann::QuantizedStore::kParamStride * sizeof(float)));
  // Same config, same seed, fp32 construction: identical graphs.
  EXPECT_EQ(int8.graph_bytes, fp32.graph_bytes);

  // The BENCH_ann gate: the int8 serving footprint (codes + graph, the
  // bytes the search loop actually touches) is >= 3x smaller than fp32's.
  EXPECT_GE(static_cast<double>(fp32.hot_bytes()),
            3.0 * static_cast<double>(int8.hot_bytes()));

  EXPECT_EQ(int8_index.SizeBytes(), int8.total());
  EXPECT_EQ(int8.total(),
            int8.fp32_bytes + int8.quantized_bytes + int8.graph_bytes);
}

TEST(QuantMemoryTest, BruteForceBreakdownSplitsPlanes) {
  const size_t dim = 384;
  const size_t n = 64;
  embed::EmbeddingMatrix corpus = RandomVectors(n, dim, 1414);
  ann::BruteForceIndex index(dim, ann::Metric::kCosine,
                             ann::Quantization::kInt8, 4);
  index.AddBatch(corpus);
  const auto breakdown = index.MemoryUsage();
  EXPECT_EQ(breakdown.fp32_bytes, n * dim * sizeof(float));
  EXPECT_EQ(breakdown.quantized_bytes,
            n * (dim + ann::QuantizedStore::kParamStride * sizeof(float)));
  EXPECT_EQ(breakdown.graph_bytes, n * sizeof(float));  // cached norms
  EXPECT_GE(static_cast<double>(breakdown.fp32_bytes),
            3.0 * static_cast<double>(breakdown.quantized_bytes));
  EXPECT_EQ(index.SizeBytes(), breakdown.total());
}

// ------------------------------------------------------- v1 forward compat

#ifndef MULTIEM_GOLDEN_DIR
#error "MULTIEM_GOLDEN_DIR must point at tests/golden (set by CMake)"
#endif

// The corpus the checked-in goldens were generated from (see
// tests/golden/README.md): deterministic sinusoid rows, so any toolchain
// reproduces the exact fp32 bits.
void FillGoldenRow(std::span<float> row, size_t i) {
  for (size_t d = 0; d < row.size(); ++d) {
    row[d] = static_cast<float>(
        std::sin(0.1 * static_cast<double>(i * row.size() + d)) + 0.01);
  }
}

constexpr size_t kGoldenDim = 16;
constexpr size_t kGoldenRows = 32;

TEST(QuantArtifactTest, CheckedInFp32GoldensStillLoadAndMatchRebuild) {
  // The format bump to v2 must not orphan existing fp32 artifacts: the
  // frozen pre-v2 files load, and an unquantized save today still produces
  // their exact bytes.
  const std::string hnsw_golden =
      std::string(MULTIEM_GOLDEN_DIR) + "/hnsw_fp32_v1.mem";
  const std::string bf_golden =
      std::string(MULTIEM_GOLDEN_DIR) + "/brute_force_fp32_v1.mem";

  auto hnsw_loaded = ann::LoadVectorIndex(hnsw_golden);
  ASSERT_TRUE(hnsw_loaded.ok()) << hnsw_loaded.status();
  EXPECT_EQ((*hnsw_loaded)->size(), kGoldenRows);
  auto bf_loaded = ann::LoadVectorIndex(bf_golden);
  ASSERT_TRUE(bf_loaded.ok()) << bf_loaded.status();
  EXPECT_EQ((*bf_loaded)->size(), kGoldenRows);

  // Rebuild the generator's corpus with today's writer.
  ann::HnswConfig config;
  config.m = 4;
  config.m0 = 8;
  config.ef_construction = 32;
  config.ef_search = 16;
  config.seed = 7;
  ann::HnswIndex hnsw_rebuilt(kGoldenDim, ann::Metric::kCosine, config);
  ann::BruteForceIndex bf_rebuilt(kGoldenDim, ann::Metric::kCosine);
  std::vector<float> row(kGoldenDim);
  for (size_t i = 0; i < kGoldenRows; ++i) {
    FillGoldenRow(row, i);
    hnsw_rebuilt.Add(row);
    bf_rebuilt.Add(row);
  }

  const std::string hnsw_resave = TempPath("hnsw_resave.mem");
  const std::string bf_resave = TempPath("bf_resave.mem");
  ASSERT_TRUE(hnsw_rebuilt.Save(hnsw_resave).ok());
  ASSERT_TRUE(bf_rebuilt.Save(bf_resave).ok());
  EXPECT_EQ(ReadFileBytes(hnsw_resave), ReadFileBytes(hnsw_golden))
      << "unquantized hnsw save no longer byte-identical to the v1 golden";
  EXPECT_EQ(ReadFileBytes(bf_resave), ReadFileBytes(bf_golden))
      << "unquantized brute_force save no longer byte-identical to the v1 "
         "golden";

  // And the loaded goldens answer like the rebuild.
  embed::EmbeddingMatrix queries = RandomVectors(10, kGoldenDim, 42);
  for (size_t q = 0; q < queries.num_rows(); ++q) {
    EXPECT_EQ((*hnsw_loaded)->Search(queries.Row(q), 5),
              hnsw_rebuilt.Search(queries.Row(q), 5));
    EXPECT_EQ((*bf_loaded)->Search(queries.Row(q), 5),
              bf_rebuilt.Search(queries.Row(q), 5));
  }
}

// ------------------------------------------------------ v2 quantized IO --

std::unique_ptr<ann::HnswIndex> BuildQuantizedHnsw(
    const embed::EmbeddingMatrix& corpus, ann::Quantization mode) {
  ann::HnswConfig config;
  config.m = 4;
  config.m0 = 8;
  config.ef_construction = 32;
  config.seed = 5;
  config.quantization = mode;
  auto index = std::make_unique<ann::HnswIndex>(corpus.dim(),
                                                ann::Metric::kCosine, config);
  index->AddBatch(corpus);
  return index;
}

TEST(QuantArtifactTest, QuantizedSaveIsByteStableAndRoundTrips) {
  embed::EmbeddingMatrix corpus = RandomVectors(80, 12, 1515);
  embed::EmbeddingMatrix queries = RandomVectors(12, 12, 1616);

  for (ann::Quantization mode :
       {ann::Quantization::kInt8, ann::Quantization::kFp16}) {
    auto first = BuildQuantizedHnsw(corpus, mode);
    auto second = BuildQuantizedHnsw(corpus, mode);
    const std::string path_a = TempPath("quant_a.mem");
    const std::string path_b = TempPath("quant_b.mem");
    ASSERT_TRUE(first->Save(path_a).ok());
    ASSERT_TRUE(second->Save(path_b).ok());
    EXPECT_EQ(ReadFileBytes(path_a), ReadFileBytes(path_b))
        << "two identical quantized builds diverged, mode "
        << ann::QuantizationName(mode);

    auto loaded = ann::LoadVectorIndex(path_a);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    auto* hnsw = dynamic_cast<ann::HnswIndex*>(loaded->get());
    ASSERT_NE(hnsw, nullptr);
    EXPECT_EQ(hnsw->quantized_store().mode(), mode);
    EXPECT_EQ(hnsw->quantized_store().size(), corpus.num_rows());
    for (size_t q = 0; q < queries.num_rows(); ++q) {
      EXPECT_EQ((*loaded)->Search(queries.Row(q), 5),
                first->Search(queries.Row(q), 5));
    }

    // Load -> save reproduces the artifact byte-for-byte (codes, params,
    // and the v2 config fields all round-trip losslessly).
    const std::string path_c = TempPath("quant_c.mem");
    ASSERT_TRUE((*loaded)->Save(path_c).ok());
    EXPECT_EQ(ReadFileBytes(path_a), ReadFileBytes(path_c));
  }
}

TEST(QuantArtifactTest, QuantizedBruteForceRoundTrips) {
  embed::EmbeddingMatrix corpus = RandomVectors(60, 12, 1717);
  embed::EmbeddingMatrix queries = RandomVectors(10, 12, 1818);
  ann::BruteForceIndex index(12, ann::Metric::kCosine,
                             ann::Quantization::kInt8, 3);
  index.AddBatch(corpus);
  const std::string path = TempPath("quant_bf.mem");
  ASSERT_TRUE(index.Save(path).ok());

  auto loaded = ann::LoadVectorIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  auto* bf = dynamic_cast<ann::BruteForceIndex*>(loaded->get());
  ASSERT_NE(bf, nullptr);
  EXPECT_EQ(bf->quantized_store().mode(), ann::Quantization::kInt8);
  for (size_t q = 0; q < queries.num_rows(); ++q) {
    EXPECT_EQ((*loaded)->Search(queries.Row(q), 5),
              index.Search(queries.Row(q), 5));
  }
  const std::string resave = TempPath("quant_bf_resave.mem");
  ASSERT_TRUE((*loaded)->Save(resave).ok());
  EXPECT_EQ(ReadFileBytes(path), ReadFileBytes(resave));
}

TEST(QuantArtifactTest, QuantizedLoadsZeroCopyUnderMmap) {
  embed::EmbeddingMatrix corpus = RandomVectors(80, 16, 1919);
  embed::EmbeddingMatrix queries = RandomVectors(10, 16, 2020);
  auto index = BuildQuantizedHnsw(corpus, ann::Quantization::kInt8);
  const std::string path = TempPath("quant_mmap.mem");
  ASSERT_TRUE(index->Save(path).ok());
  const std::vector<uint8_t> before = ReadFileBytes(path);

  // The default heap open binds the same views as a mapped one, over the
  // per-section heap blocks instead of the mapping.
  for (const bool mapped : {false, true}) {
    SCOPED_TRACE(mapped ? "mapped open" : "heap open");
    util::ArtifactOpenOptions options;
    if (mapped) options.mapping = util::ArtifactOpenOptions::Mapping::kRequire;
    auto loaded = ann::LoadVectorIndex(path, options);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    auto* hnsw = dynamic_cast<ann::HnswIndex*>(loaded->get());
    ASSERT_NE(hnsw, nullptr);
    // The code plane serves straight from the loaded sections: logical
    // bytes present, zero owned heap bytes.
    EXPECT_GT(hnsw->quantized_store().CodeBytes(), 0u);
    EXPECT_EQ(hnsw->quantized_store().OwnedBytes(), 0u)
        << "quant slabs were copied on load";
    for (size_t q = 0; q < queries.num_rows(); ++q) {
      EXPECT_EQ((*loaded)->Search(queries.Row(q), 5),
                index->Search(queries.Row(q), 5));
    }

    // Mutating a loaded index (Add) must copy-on-write the quant plane, not
    // scribble on the file.
    std::vector<float> extra(16, 0.5f);
    (*loaded)->Add(extra);
    EXPECT_GT(hnsw->quantized_store().OwnedBytes(), 0u);
    EXPECT_EQ(hnsw->quantized_store().size(), corpus.num_rows() + 1);
    EXPECT_EQ(ReadFileBytes(path), before);
  }
}

TEST(QuantArtifactTest, RejectsCorruptionThroughHeapAndMmap) {
  embed::EmbeddingMatrix corpus = RandomVectors(48, 8, 2121);
  auto index = BuildQuantizedHnsw(corpus, ann::Quantization::kInt8);
  const std::string path = TempPath("quant_corrupt.mem");
  ASSERT_TRUE(index->Save(path).ok());
  const std::vector<uint8_t> image = ReadFileBytes(path);

  const util::ArtifactOpenOptions::Mapping kModes[] = {
      util::ArtifactOpenOptions::Mapping::kDisable,
      util::ArtifactOpenOptions::Mapping::kPrefer,
      util::ArtifactOpenOptions::Mapping::kRequire,
  };
  const std::string scratch = TempPath("quant_corrupt_scratch.mem");

  // Single-bit flips across the whole image (stride-sampled; the io_test
  // exhaustive sweep covers the container itself) must fail verification in
  // every open mode.
  for (size_t pos = 0; pos < image.size(); pos += 13) {
    std::vector<uint8_t> corrupt = image;
    corrupt[pos] ^= 0x10;
    WriteFileBytes(scratch, corrupt);
    for (auto mapping : kModes) {
      util::ArtifactOpenOptions options;
      options.mapping = mapping;
      EXPECT_FALSE(ann::LoadVectorIndex(scratch, options).ok())
          << "bit flip at " << pos << " accepted, mapping mode "
          << static_cast<int>(mapping);
    }
  }

  // Every sampled truncation length, same three modes.
  for (size_t len = 0; len < image.size(); len += 97) {
    WriteFileBytes(scratch,
                   std::vector<uint8_t>(image.begin(), image.begin() + len));
    for (auto mapping : kModes) {
      util::ArtifactOpenOptions options;
      options.mapping = mapping;
      EXPECT_FALSE(ann::LoadVectorIndex(scratch, options).ok())
          << "truncation to " << len << " bytes accepted";
    }
  }
}

TEST(QuantArtifactTest, RejectsV2WithNoneMode) {
  // A v2 file claiming quantization "none" is contradictory (v2 exists only
  // for quantized indexes) and must be rejected, not silently served fp32.
  {
    util::ArtifactWriter writer(ann::kIndexArtifactMagic,
                                ann::kIndexArtifactVersion);
    util::ByteWriter& meta = writer.AddSection("meta");
    meta.WriteString("hnsw");
    meta.WriteU64(4);   // dim
    meta.WriteU8(0);    // metric
    meta.WriteU64(0);   // num_nodes
    meta.WriteU64(0);   // entry state
    util::ByteWriter& config = writer.AddSection("config");
    config.WriteU64(4);    // m
    config.WriteU64(8);    // m0
    config.WriteU64(32);   // ef_construction
    config.WriteU64(16);   // ef_search
    config.WriteU64(7);    // seed
    config.WriteU64(1024); // a retired slot, ignored on load
    config.WriteU64(0);    // quantization = kNone: invalid in a v2 file
    config.WriteU64(4);    // rerank_factor
    const std::string path = TempPath("v2_none_hnsw.mem");
    ASSERT_TRUE(writer.WriteFile(path).ok());
    auto loaded = ann::LoadVectorIndex(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
  }
  {
    util::ArtifactWriter writer(ann::kIndexArtifactMagic,
                                ann::kIndexArtifactVersion);
    util::ByteWriter& meta = writer.AddSection("meta");
    meta.WriteString("brute_force");
    meta.WriteU64(4);  // dim
    meta.WriteU8(0);   // metric
    meta.WriteU64(0);  // num_vectors
    meta.WriteU8(0);   // quantization = kNone: invalid in a v2 file
    meta.WriteU64(4);  // rerank_factor
    writer.AddSection("vectors").WriteF32Array(std::vector<float>{});
    writer.AddSection("sq_norms").WriteF32Array(std::vector<float>{});
    const std::string path = TempPath("v2_none_bf.mem");
    ASSERT_TRUE(writer.WriteFile(path).ok());
    auto loaded = ann::LoadVectorIndex(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
  }
}

TEST(QuantArtifactTest, RejectsQuantSectionCountMismatch) {
  // Re-author the artifact with a truncated code plane but valid checksums:
  // the semantic count checks in LoadSections have to catch it.
  embed::EmbeddingMatrix corpus = RandomVectors(32, 8, 2323);
  auto index = BuildQuantizedHnsw(corpus, ann::Quantization::kInt8);
  const std::string path = TempPath("quant_count.mem");
  ASSERT_TRUE(index->Save(path).ok());

  auto artifact = util::ArtifactReader::FromFile(
      path, ann::kIndexArtifactMagic, ann::kIndexArtifactVersion);
  ASSERT_TRUE(artifact.ok()) << artifact.status();
  util::ArtifactWriter rewriter(ann::kIndexArtifactMagic,
                                ann::kIndexArtifactVersion);
  // Typed copy of every section except the code plane, which loses its
  // last element (the container checksums stay valid; only the semantic
  // rows * dim count breaks).
  {
    auto meta = artifact->Section("meta");
    ASSERT_TRUE(meta.ok());
    std::string kind;
    uint64_t dim, num_nodes, entry;
    uint8_t metric;
    ASSERT_TRUE(meta->ReadString(&kind).ok());
    ASSERT_TRUE(meta->ReadU64(&dim).ok());
    ASSERT_TRUE(meta->ReadU8(&metric).ok());
    ASSERT_TRUE(meta->ReadU64(&num_nodes).ok());
    ASSERT_TRUE(meta->ReadU64(&entry).ok());
    util::ByteWriter& out = rewriter.AddSection("meta");
    out.WriteString(kind);
    out.WriteU64(dim);
    out.WriteU8(metric);
    out.WriteU64(num_nodes);
    out.WriteU64(entry);
  }
  {
    auto config = artifact->Section("config");
    ASSERT_TRUE(config.ok());
    util::ByteWriter& out = rewriter.AddSection("config");
    for (int i = 0; i < 8; ++i) {
      uint64_t v;
      ASSERT_TRUE(config->ReadU64(&v).ok());
      out.WriteU64(v);
    }
  }
  const auto copy_array = [&](const char* name, auto element_tag,
                              bool drop_last) {
    using T = decltype(element_tag);
    std::vector<T> values;
    auto section = artifact->Section(name);
    ASSERT_TRUE(section.ok()) << section.status();
    ASSERT_TRUE(section->ReadArrayInto(&values).ok());
    if (drop_last) {
      ASSERT_FALSE(values.empty());
      values.pop_back();
    }
    util::ByteWriter& out = rewriter.AddSection(name);
    if constexpr (std::is_same_v<T, uint64_t>) {
      out.WriteU64Array(values);
    } else if constexpr (std::is_same_v<T, uint32_t>) {
      out.WriteU32Array(values);
    } else if constexpr (std::is_same_v<T, int32_t>) {
      out.WriteI32Array(values);
    } else if constexpr (std::is_same_v<T, float>) {
      out.WriteF32Array(values);
    } else {
      out.WriteI8Array(values);
    }
  };
  copy_array("rng", uint64_t{}, false);
  copy_array("vectors", float{}, false);
  copy_array("levels", int32_t{}, false);
  copy_array("links0", uint32_t{}, false);
  copy_array("upper_offsets", uint64_t{}, false);
  copy_array("upper_links", uint32_t{}, false);
  {
    auto quant = artifact->Section("quant");
    ASSERT_TRUE(quant.ok());
    uint8_t mode;
    uint64_t dim, rows;
    ASSERT_TRUE(quant->ReadU8(&mode).ok());
    ASSERT_TRUE(quant->ReadU64(&dim).ok());
    ASSERT_TRUE(quant->ReadU64(&rows).ok());
    util::ByteWriter& out = rewriter.AddSection("quant");
    out.WriteU8(mode);
    out.WriteU64(dim);
    out.WriteU64(rows);
  }
  copy_array("quant_codes", int8_t{}, /*drop_last=*/true);
  copy_array("quant_params", float{}, false);
  ASSERT_TRUE(rewriter.WriteFile(path).ok());
  auto loaded = ann::LoadVectorIndex(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace multiem
