// Unit + property tests for src/ann: metrics, brute force, HNSW (recall vs
// exact oracle across metrics/sizes/parameters), mutual top-K (Eq. 1).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "ann/brute_force.h"
#include "ann/hnsw.h"
#include "ann/index_io.h"
#include "ann/mutual_topk.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace multiem::ann {
namespace {

// Random unit vectors with a few planted clusters.
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

// ---------------------------------------------------------------- Metric --

TEST(MetricTest, Names) {
  EXPECT_EQ(MetricName(Metric::kCosine), "cosine");
  EXPECT_EQ(MetricName(Metric::kEuclidean), "euclidean");
  EXPECT_EQ(MetricName(Metric::kInnerProduct), "inner_product");
}

TEST(MetricTest, DistancesAgreeWithDefinitions) {
  std::vector<float> a{1.0f, 0.0f};
  std::vector<float> b{0.0f, 1.0f};
  EXPECT_NEAR(Distance(Metric::kCosine, a, b), 1.0f, 1e-6);
  EXPECT_NEAR(Distance(Metric::kEuclidean, a, b), std::sqrt(2.0f), 1e-6);
  EXPECT_NEAR(Distance(Metric::kInnerProduct, a, b), 0.0f, 1e-6);
  EXPECT_NEAR(Distance(Metric::kInnerProduct, a, a), -1.0f, 1e-6);
}

// ----------------------------------------------------------- Brute force --

TEST(BruteForceTest, FindsExactNearest) {
  BruteForceIndex index(2, Metric::kEuclidean);
  index.Add(std::vector<float>{0.0f, 0.0f});
  index.Add(std::vector<float>{1.0f, 0.0f});
  index.Add(std::vector<float>{5.0f, 5.0f});
  auto hits = index.Search(std::vector<float>{0.9f, 0.1f}, 2);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].id, 1u);
  EXPECT_EQ(hits[1].id, 0u);
}

TEST(BruteForceTest, KLargerThanIndex) {
  BruteForceIndex index(2, Metric::kEuclidean);
  index.Add(std::vector<float>{0.0f, 0.0f});
  auto hits = index.Search(std::vector<float>{1.0f, 0.0f}, 10);
  EXPECT_EQ(hits.size(), 1u);
}

TEST(BruteForceTest, CosineNormalizesStoredAndQuery) {
  BruteForceIndex index(2, Metric::kCosine);
  index.Add(std::vector<float>{10.0f, 0.0f});   // same direction, big norm
  index.Add(std::vector<float>{0.0f, 0.1f});
  auto hits = index.Search(std::vector<float>{0.5f, 0.0f}, 1);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, 0u);
  EXPECT_NEAR(hits[0].distance, 0.0f, 1e-5);
}

TEST(BruteForceTest, ResultsSortedAscendingWithIdTiebreak) {
  BruteForceIndex index(1, Metric::kEuclidean);
  index.Add(std::vector<float>{1.0f});
  index.Add(std::vector<float>{1.0f});  // exact tie with id 0
  index.Add(std::vector<float>{0.5f});
  auto hits = index.Search(std::vector<float>{1.0f}, 3);
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].id, 0u);
  EXPECT_EQ(hits[1].id, 1u);
  EXPECT_EQ(hits[2].id, 2u);
}

// ------------------------------------------------------------------ HNSW --

TEST(HnswTest, EmptyIndexReturnsNothing) {
  HnswIndex index(8, Metric::kCosine);
  EXPECT_TRUE(index.Search(std::vector<float>(8, 0.1f), 3).empty());
  EXPECT_EQ(index.size(), 0u);
}

TEST(HnswTest, SingleElement) {
  HnswIndex index(4, Metric::kEuclidean);
  index.Add(std::vector<float>{1.0f, 2.0f, 3.0f, 4.0f});
  auto hits = index.Search(std::vector<float>{1.0f, 2.0f, 3.0f, 4.0f}, 5);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, 0u);
  EXPECT_NEAR(hits[0].distance, 0.0f, 1e-6);
}

TEST(HnswTest, ExactOnTinyData) {
  // With n << ef_search HNSW degenerates to exact search.
  auto data = RandomVectors(50, 16, 1);
  HnswIndex hnsw(16, Metric::kCosine);
  BruteForceIndex exact(16, Metric::kCosine);
  hnsw.AddBatch(data);
  exact.AddBatch(data);
  auto query = RandomVectors(1, 16, 99);
  auto approx_hits = hnsw.Search(query.Row(0), 5);
  auto exact_hits = exact.Search(query.Row(0), 5);
  ASSERT_EQ(approx_hits.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(approx_hits[i].id, exact_hits[i].id);
  }
}

TEST(HnswTest, SizeBytesGrowsWithData) {
  HnswIndex index(16, Metric::kCosine);
  size_t before = index.SizeBytes();
  auto data = RandomVectors(100, 16, 3);
  index.AddBatch(data);
  EXPECT_GT(index.SizeBytes(), before + 100 * 16 * sizeof(float) / 2);
  EXPECT_EQ(index.size(), 100u);
  EXPECT_GE(index.max_level(), 0);
}

TEST(HnswTest, DeterministicGivenSeed) {
  auto data = RandomVectors(300, 16, 4);
  HnswConfig config;
  config.seed = 42;
  HnswIndex a(16, Metric::kCosine, config);
  HnswIndex b(16, Metric::kCosine, config);
  a.AddBatch(data);
  b.AddBatch(data);
  auto query = RandomVectors(1, 16, 5);
  auto hits_a = a.Search(query.Row(0), 10);
  auto hits_b = b.Search(query.Row(0), 10);
  ASSERT_EQ(hits_a.size(), hits_b.size());
  for (size_t i = 0; i < hits_a.size(); ++i) {
    EXPECT_EQ(hits_a[i].id, hits_b[i].id);
  }
}

// Recall property sweep: (metric, n, M, ef) combinations must all beat the
// recall floor against the exact oracle.
struct RecallCase {
  Metric metric;
  size_t n;
  size_t m;
  size_t ef;
  double min_recall;
};

class HnswRecallSweep : public ::testing::TestWithParam<RecallCase> {};

TEST_P(HnswRecallSweep, RecallAtTenBeatsFloor) {
  const RecallCase& params = GetParam();
  constexpr size_t kDim = 32;
  constexpr size_t kQueries = 50;
  constexpr size_t kK = 10;
  auto data = RandomVectors(params.n, kDim, 7);
  auto queries = RandomVectors(kQueries, kDim, 8);

  HnswConfig config;
  config.m = params.m;
  config.m0 = params.m * 2;
  config.ef_construction = std::max<size_t>(params.ef, 100);
  config.ef_search = params.ef;
  HnswIndex hnsw(kDim, params.metric, config);
  BruteForceIndex exact(kDim, params.metric);
  hnsw.AddBatch(data);
  exact.AddBatch(data);

  size_t found = 0;
  for (size_t q = 0; q < kQueries; ++q) {
    auto approx_hits = hnsw.Search(queries.Row(q), kK);
    auto exact_hits = exact.Search(queries.Row(q), kK);
    std::unordered_set<size_t> truth;
    for (const auto& h : exact_hits) truth.insert(h.id);
    for (const auto& h : approx_hits) found += truth.count(h.id);
  }
  double recall = static_cast<double>(found) / (kQueries * kK);
  EXPECT_GE(recall, params.min_recall)
      << "metric=" << MetricName(params.metric) << " n=" << params.n
      << " M=" << params.m << " ef=" << params.ef;
}

INSTANTIATE_TEST_SUITE_P(
    RecallGrid, HnswRecallSweep,
    ::testing::Values(RecallCase{Metric::kCosine, 2000, 16, 64, 0.90},
                      RecallCase{Metric::kCosine, 2000, 8, 32, 0.70},
                      RecallCase{Metric::kCosine, 5000, 16, 128, 0.90},
                      RecallCase{Metric::kEuclidean, 2000, 16, 64, 0.90},
                      RecallCase{Metric::kInnerProduct, 2000, 16, 64, 0.85}));

TEST(HnswTest, SearchEfImprovesRecall) {
  constexpr size_t kDim = 32;
  auto data = RandomVectors(3000, kDim, 11);
  HnswConfig config;
  config.ef_search = 8;
  HnswIndex hnsw(kDim, Metric::kCosine, config);
  BruteForceIndex exact(kDim, Metric::kCosine);
  hnsw.AddBatch(data);
  exact.AddBatch(data);
  auto queries = RandomVectors(30, kDim, 12);
  auto recall_at = [&](size_t ef) {
    size_t found = 0;
    for (size_t q = 0; q < queries.num_rows(); ++q) {
      auto truth_hits = exact.Search(queries.Row(q), 10);
      std::unordered_set<size_t> truth;
      for (const auto& h : truth_hits) truth.insert(h.id);
      for (const auto& h :
           hnsw.SearchWithStats(queries.Row(q), 10, ef, nullptr)) {
        found += truth.count(h.id);
      }
    }
    return static_cast<double>(found) / (queries.num_rows() * 10);
  };
  EXPECT_GE(recall_at(256), recall_at(10));
}

TEST(HnswTest, InterleavedAddSearchNeverSkipsExactMatch) {
  // Regression for the visited-list pool: Add and Search both recycle
  // VisitedLists, and AcquireVisited grows a recycled list (new tail
  // stamped 0) while keeping its `current` stamp counter. If a stale stamp
  // could ever equal the fresh ++current stamp, SearchLayer would treat an
  // unvisited node as visited and silently skip it — so an exhaustive-width
  // search could miss even an exactly-stored vector. Interleave growth and
  // searches and require every stored vector to be found at distance ~0.
  constexpr size_t kDim = 8;
  constexpr size_t kRounds = 12;
  constexpr size_t kPerRound = 25;
  auto data = RandomVectors(kRounds * kPerRound, kDim, 77);
  HnswIndex index(kDim, Metric::kEuclidean);
  for (size_t round = 0; round < kRounds; ++round) {
    // Grow: each Add runs SearchLayer, recycling + regrowing visited lists.
    for (size_t i = 0; i < kPerRound; ++i) {
      index.Add(data.Row(round * kPerRound + i));
    }
    // Search with a beam wide enough to reach the whole layer-0 graph: the
    // only way to miss a stored vector now is a false "visited" mark.
    for (size_t i = 0; i < index.size(); i += 7) {
      auto hits =
          index.SearchWithStats(data.Row(i), 1, index.size(), nullptr);
      ASSERT_FALSE(hits.empty());
      EXPECT_EQ(hits[0].id, i);
      EXPECT_NEAR(hits[0].distance, 0.0f, 1e-6);
    }
  }
}

TEST(HnswTest, InterleavedAddSearchMatchesExactTopOne) {
  // Same interleaving, checked against brute force on non-identical queries:
  // the top-1 neighbor of a fresh query must agree with the exact index
  // (distance-wise) after every growth step.
  constexpr size_t kDim = 16;
  auto data = RandomVectors(400, kDim, 91);
  auto queries = RandomVectors(20, kDim, 92);
  HnswIndex hnsw(kDim, Metric::kCosine);
  BruteForceIndex exact(kDim, Metric::kCosine);
  for (size_t i = 0; i < data.num_rows(); ++i) {
    hnsw.Add(data.Row(i));
    exact.Add(data.Row(i));
    if (i % 80 != 79) continue;
    for (size_t q = 0; q < queries.num_rows(); ++q) {
      auto approx =
          hnsw.SearchWithStats(queries.Row(q), 1, hnsw.size(), nullptr);
      auto truth = exact.Search(queries.Row(q), 1);
      ASSERT_EQ(approx.size(), 1u);
      ASSERT_EQ(truth.size(), 1u);
      EXPECT_NEAR(approx[0].distance, truth[0].distance, 1e-5);
    }
  }
}

// Flat-slab layout at scale: the rewritten storage must agree with the
// exact oracle on a corpus big enough for real multi-layer graphs.
TEST(HnswFlatTest, TenThousandVectorRecallVsOracle) {
  constexpr size_t kDim = 32;
  constexpr size_t kQueries = 40;
  constexpr size_t kK = 10;
  auto data = RandomVectors(10000, kDim, 31);
  auto queries = RandomVectors(kQueries, kDim, 32);
  HnswConfig config;
  config.ef_search = 200;
  HnswIndex hnsw(kDim, Metric::kCosine, config);
  BruteForceIndex exact(kDim, Metric::kCosine);
  hnsw.AddBatch(data);
  exact.AddBatch(data);
  size_t found = 0;
  for (size_t q = 0; q < kQueries; ++q) {
    auto approx_hits = hnsw.Search(queries.Row(q), kK);
    auto exact_hits = exact.Search(queries.Row(q), kK);
    std::unordered_set<size_t> truth;
    for (const auto& h : exact_hits) truth.insert(h.id);
    for (const auto& h : approx_hits) found += truth.count(h.id);
  }
  double recall = static_cast<double>(found) / (kQueries * kK);
  EXPECT_GE(recall, 0.95) << "flat-slab recall collapsed on 10k corpus";
}

// ------------------------------------------------- Parallel construction --

// AddBatch(pool) fans each insert round out across the pool; the graph it
// builds must match the exact oracle just like a serial build. (Also the
// TSan subject for pooled inserts — the CI thread-sanitizer job runs every
// *Parallel* test in this file.)
TEST(HnswParallelTest, ParallelBuildRecallVsOracle) {
  constexpr size_t kDim = 32;
  constexpr size_t kQueries = 40;
  constexpr size_t kK = 10;
  auto data = RandomVectors(3000, kDim, 41);
  auto queries = RandomVectors(kQueries, kDim, 42);
  HnswConfig config;
  config.ef_search = 128;
  HnswIndex hnsw(kDim, Metric::kCosine, config);
  BruteForceIndex exact(kDim, Metric::kCosine);
  util::ThreadPool pool(4);
  hnsw.AddBatch(data, &pool);
  exact.AddBatch(data, &pool);
  ASSERT_EQ(hnsw.size(), data.num_rows());
  EXPECT_GE(hnsw.max_level(), 0);
  size_t found = 0;
  for (size_t q = 0; q < kQueries; ++q) {
    auto approx_hits = hnsw.Search(queries.Row(q), kK);
    auto exact_hits = exact.Search(queries.Row(q), kK);
    std::unordered_set<size_t> truth;
    for (const auto& h : exact_hits) truth.insert(h.id);
    for (const auto& h : approx_hits) found += truth.count(h.id);
  }
  double recall = static_cast<double>(found) / (kQueries * kK);
  EXPECT_GE(recall, 0.90) << "parallel build degraded the graph";
}

// Mirror of InterleavedAddSearchNeverSkipsExactMatch for the pooled path:
// pooled AddBatch calls interleaved with exhaustive-width searches, most of
// their rows in multi-row rounds (past 1,024 nodes). Every stored vector
// must be found at distance ~0 after every batch — a lost or torn link (or
// a stale visited stamp across the recycle-then-grow scratch path) would
// break this.
TEST(HnswParallelTest, InterleavedParallelBatchesNeverSkipExactMatch) {
  constexpr size_t kDim = 8;
  constexpr size_t kRounds = 4;
  constexpr size_t kPerRound = 800;
  auto data = RandomVectors(kRounds * kPerRound, kDim, 77);
  HnswConfig config;
  HnswIndex index(kDim, Metric::kEuclidean, config);
  util::ThreadPool pool(4);
  for (size_t round = 0; round < kRounds; ++round) {
    embed::EmbeddingMatrix batch(kPerRound, kDim);
    for (size_t i = 0; i < kPerRound; ++i) {
      auto src = data.Row(round * kPerRound + i);
      auto dst = batch.Row(i);
      std::copy(src.begin(), src.end(), dst.begin());
    }
    index.AddBatch(batch, &pool);
    ASSERT_EQ(index.size(), (round + 1) * kPerRound);
    for (size_t i = 0; i < index.size(); i += 13) {
      auto hits =
          index.SearchWithStats(data.Row(i), 1, index.size(), nullptr);
      ASSERT_FALSE(hits.empty());
      EXPECT_EQ(hits[0].id, i);
      EXPECT_NEAR(hits[0].distance, 0.0f, 1e-6);
    }
  }
}

// A kFull load validates every link on the verify pool through const reads
// only: each slab stays a view of its loaded section, heap block or
// mapping, so the index owns no bytes, and no two pool threads copy one
// slab at once (the TSan job runs this case).
TEST(HnswParallelTest, VerifyPoolLoadKeepsEverySlabAView) {
  constexpr size_t kDim = 8;
  // Enough nodes that the per-node validation sweep (blocks of 4096) fans
  // out over more than one thread.
  auto data = RandomVectors(9000, kDim, 91);
  HnswConfig config;
  config.m = 4;
  config.ef_construction = 16;
  HnswIndex built(kDim, Metric::kCosine, config);
  util::ThreadPool pool(4);
  built.AddBatch(data, &pool);
  const std::string path = ::testing::TempDir() + "multiem_ann_verify.mem";
  ASSERT_TRUE(built.Save(path).ok());

  util::ArtifactOpenOptions heap;
  heap.verify_pool = &pool;
  util::ArtifactOpenOptions mapped = heap;
  mapped.mapping = util::ArtifactOpenOptions::Mapping::kPrefer;
  for (const util::ArtifactOpenOptions& options : {heap, mapped}) {
    ASSERT_EQ(options.verify, util::ArtifactOpenOptions::Verify::kFull);
    auto loaded = LoadVectorIndex(path, options);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    const auto* hnsw = dynamic_cast<const HnswIndex*>(loaded->get());
    ASSERT_NE(hnsw, nullptr);
    EXPECT_EQ(hnsw->OwnedBytes(), 0u);
    for (size_t i = 0; i < data.num_rows(); i += 997) {
      EXPECT_EQ(hnsw->Search(data.Row(i), 5), built.Search(data.Row(i), 5));
    }
  }
  std::filesystem::remove(path);
}

TEST(BruteForceTest, ParallelAddBatchMatchesSerial) {
  auto data = RandomVectors(500, 16, 51);
  auto queries = RandomVectors(10, 16, 52);
  BruteForceIndex serial(16, Metric::kCosine);
  BruteForceIndex parallel(16, Metric::kCosine);
  serial.AddBatch(data);
  util::ThreadPool pool(4);
  parallel.AddBatch(data, &pool);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t q = 0; q < queries.num_rows(); ++q) {
    auto a = serial.Search(queries.Row(q), 5);
    auto b = parallel.Search(queries.Row(q), 5);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_EQ(a[i].distance, b[i].distance);  // bit-identical build
    }
  }
}

// ------------------------------------------------------ Clone-and-insert --

// The bytes `index` saves to.
std::string SavedBytes(const VectorIndex& index) {
  const std::string path = ::testing::TempDir() + "multiem_ann_clone.mem";
  EXPECT_TRUE(index.Save(path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::filesystem::remove(path);
  return bytes;
}

// `index` saved and loaded back, so its slabs are views of the loaded
// sections rather than owned buffers.
std::unique_ptr<VectorIndex> Reloaded(const VectorIndex& index) {
  const std::string path = ::testing::TempDir() + "multiem_ann_reload.mem";
  EXPECT_TRUE(index.Save(path).ok());
  auto loaded = LoadVectorIndex(path);
  std::filesystem::remove(path);  // the loaded sections live on the heap
  EXPECT_TRUE(loaded.ok()) << loaded.status();
  return loaded.ok() ? std::move(*loaded) : nullptr;
}

// The index kinds CloneAndAdd is pinned for, built over `rows` in memory.
std::vector<std::unique_ptr<VectorIndex>> CloneSources(
    const embed::EmbeddingMatrix& rows) {
  std::vector<std::unique_ptr<VectorIndex>> sources;
  for (Quantization q : {Quantization::kNone, Quantization::kInt8}) {
    HnswConfig config;
    config.m = 8;
    config.ef_construction = 40;
    config.quantization = q;
    sources.push_back(
        std::make_unique<HnswIndex>(rows.dim(), Metric::kCosine, config));
    sources.push_back(
        std::make_unique<BruteForceIndex>(rows.dim(), Metric::kCosine, q));
  }
  for (auto& source : sources) source->AddBatch(rows);
  return sources;
}

TEST(CloneAndAddTest, SavesTheBytesOfCloneThenAddBatch) {
  const auto base = RandomVectors(300, 24, 71);
  const auto batch = RandomVectors(96, 24, 72);
  util::ThreadPool two_threads(2);
  for (const auto& in_memory : CloneSources(base)) {
    const std::unique_ptr<VectorIndex> loaded = Reloaded(*in_memory);
    ASSERT_NE(loaded, nullptr);
    for (const VectorIndex* source : {in_memory.get(), loaded.get()}) {
      for (util::ThreadPool* pool : {static_cast<util::ThreadPool*>(nullptr),
                                     &two_threads}) {
        SCOPED_TRACE(std::string(source->kind()) +
                     (source == loaded.get() ? " loaded" : " in memory") +
                     (pool == nullptr ? ", no pool" : ", pool"));
        const std::string source_bytes = SavedBytes(*source);
        std::unique_ptr<VectorIndex> two_step = source->Clone();
        ASSERT_NE(two_step, nullptr);
        two_step->AddBatch(batch, pool);
        const std::unique_ptr<VectorIndex> one_step =
            source->CloneAndAdd(batch, pool);
        ASSERT_NE(one_step, nullptr);
        EXPECT_EQ(one_step->size(), base.num_rows() + batch.num_rows());
        EXPECT_EQ(SavedBytes(*one_step), SavedBytes(*two_step));
        EXPECT_EQ(SavedBytes(*source), source_bytes);  // source untouched
        // One copy of each HNSW slab, made at its size after the batch.
        if (const auto* hnsw = dynamic_cast<const HnswIndex*>(one_step.get())) {
          EXPECT_EQ(hnsw->OwnedBytes(), hnsw->MemoryUsage().total());
        }
      }
    }
  }
}

TEST(CloneAndAddTest, SerialAddBatchSizesEverySlabExactly) {
  const auto rows = RandomVectors(300, 24, 73);
  for (Quantization q : {Quantization::kNone, Quantization::kInt8}) {
    HnswConfig config;
    config.quantization = q;
    HnswIndex index(24, Metric::kCosine, config);
    index.AddBatch(rows);  // no pool: the serial path
    // Capacity equals size in every slab: the vector slab holds exactly
    // 300 * 24 floats instead of the next doubling of its growth.
    EXPECT_EQ(index.MemoryUsage().fp32_bytes, rows.num_rows() * 24 * 4);
    EXPECT_EQ(index.OwnedBytes(), index.MemoryUsage().total())
        << QuantizationName(q);
  }
}

// Insert rounds depend on the graph size alone, so a build saves the same
// bytes with no pool and with a pool of any size: under default and lean
// knobs, fp32 and int8, for AddBatch past the sequential 1,024 nodes and for
// CloneAndAdd of a 700-row batch onto a loaded index.
TEST(HnswParallelTest, SameBytesOnAnyPool) {
  constexpr size_t kDim = 16;
  const auto rows = RandomVectors(5000, kDim, 81);
  const auto batch = RandomVectors(700, kDim, 82);
  util::ThreadPool one(1);
  util::ThreadPool two(2);
  util::ThreadPool four(4);
  for (bool lean : {false, true}) {
    for (Quantization q : {Quantization::kNone, Quantization::kInt8}) {
      SCOPED_TRACE(std::string(lean ? "lean " : "default ") +
                   std::string(QuantizationName(q)));
      HnswConfig config;
      if (lean) {
        config.m = 8;
        config.ef_construction = 40;
      }
      config.quantization = q;
      HnswIndex serial(kDim, Metric::kCosine, config);
      serial.AddBatch(rows);
      const std::string built = SavedBytes(serial);
      const std::unique_ptr<VectorIndex> loaded = Reloaded(serial);
      ASSERT_NE(loaded, nullptr);
      const std::string grown = SavedBytes(*loaded->CloneAndAdd(batch, nullptr));
      for (util::ThreadPool* pool : {&one, &two, &four}) {
        HnswIndex pooled(kDim, Metric::kCosine, config);
        pooled.AddBatch(rows, pool);
        EXPECT_TRUE(SavedBytes(pooled) == built)
            << "AddBatch on " << pool->num_threads() << " threads";
        EXPECT_TRUE(SavedBytes(*loaded->CloneAndAdd(batch, pool)) == grown)
            << "CloneAndAdd on " << pool->num_threads() << " threads";
      }
    }
  }
}

// Duplicate groups in row order, as near-duplicates sit in a sorted source:
// most of a group goes in within one round, where its rows find each other
// only among the round's earlier rows. Recall@10 at bench_scale's lean
// knobs must hold (without those candidates it read 0.87 here).
TEST(HnswParallelTest, AdjacentDuplicateGroupsKeepRecall) {
  constexpr size_t kDim = 64;
  constexpr size_t kGroupRows = 10;
  constexpr size_t kRows = 24000;
  constexpr size_t kQueries = 200;
  constexpr size_t kK = 10;
  const auto centers = RandomVectors(kRows / kGroupRows, kDim, 83);
  util::Rng rng(84);
  // A unit center plus half a unit of noise, normalized (cosine ~0.89).
  auto perturbed = [&](std::span<const float> center, std::span<float> out) {
    for (size_t d = 0; d < kDim; ++d) out[d] = static_cast<float>(rng.Normal());
    embed::L2NormalizeInPlace(out);
    for (size_t d = 0; d < kDim; ++d) out[d] = center[d] + 0.5f * out[d];
    embed::L2NormalizeInPlace(out);
  };
  embed::EmbeddingMatrix rows(kRows, kDim);
  for (size_t i = 0; i < kRows; ++i) {
    perturbed(centers.Row(i / kGroupRows), rows.Row(i));
  }
  embed::EmbeddingMatrix queries(kQueries, kDim);
  for (size_t q = 0; q < kQueries; ++q) {
    perturbed(centers.Row(rng.NextBounded(centers.num_rows())),
              queries.Row(q));
  }
  HnswConfig config;
  config.m = 8;
  config.ef_construction = 40;
  config.ef_search = 32;
  HnswIndex hnsw(kDim, Metric::kCosine, config);
  BruteForceIndex exact(kDim, Metric::kCosine);
  util::ThreadPool pool(4);
  hnsw.AddBatch(rows, &pool);
  exact.AddBatch(rows, &pool);
  size_t found = 0;
  for (size_t q = 0; q < kQueries; ++q) {
    std::unordered_set<size_t> truth;
    for (const auto& h : exact.Search(queries.Row(q), kK)) truth.insert(h.id);
    for (const auto& h : hnsw.Search(queries.Row(q), kK)) {
      found += truth.count(h.id);
    }
  }
  const double recall = static_cast<double>(found) / (kQueries * kK);
  EXPECT_GE(recall, 0.95);
}

// ----------------------------------------------------------- MutualTopK --

// Two tables with planted matches: row i of left matches row i of right for
// i < matches (identical vectors); the rest are random.
struct MutualFixture {
  embed::EmbeddingMatrix left;
  embed::EmbeddingMatrix right;
};

MutualFixture PlantedMatches(size_t n, size_t matches, uint64_t seed) {
  MutualFixture f;
  f.left = RandomVectors(n, 16, seed);
  f.right = RandomVectors(n, 16, seed + 1);
  for (size_t i = 0; i < matches; ++i) {
    auto src = f.left.Row(i);
    auto dst = f.right.Row(i);
    std::copy(src.begin(), src.end(), dst.begin());
  }
  return f;
}

TEST(MutualTopKTest, FindsPlantedMatchesExact) {
  auto f = PlantedMatches(200, 50, 21);
  MutualTopKOptions options;
  options.k = 1;
  options.max_distance = 0.05f;
  auto pairs = MutualTopK(f.left, f.right, BruteForceIndexFactory{}, options);
  ASSERT_EQ(pairs.size(), 50u);
  for (const auto& p : pairs) {
    EXPECT_EQ(p.left, p.right);
    EXPECT_LT(p.left, 50u);
    EXPECT_NEAR(p.distance, 0.0f, 1e-5);
  }
}

TEST(MutualTopKTest, HnswAgreesWithExactOnPlanted) {
  auto f = PlantedMatches(500, 100, 22);
  MutualTopKOptions options;
  options.max_distance = 0.05f;
  auto exact_pairs =
      MutualTopK(f.left, f.right, BruteForceIndexFactory{}, options);
  auto hnsw_pairs = MutualTopK(f.left, f.right, HnswIndexFactory{}, options);
  // HNSW may miss a few, but should recover nearly all planted pairs.
  EXPECT_GE(hnsw_pairs.size(), exact_pairs.size() * 9 / 10);
}

TEST(MutualTopKTest, DistanceCapFilters) {
  auto f = PlantedMatches(100, 30, 23);
  const BruteForceIndexFactory exact;
  MutualTopKOptions options;
  options.max_distance = 0.0f;  // only exact duplicates survive
  auto pairs = MutualTopK(f.left, f.right, exact, options);
  EXPECT_EQ(pairs.size(), 30u);
  options.max_distance = -1.0f;  // nothing can pass
  EXPECT_TRUE(MutualTopK(f.left, f.right, exact, options).empty());
}

TEST(MutualTopKTest, MutualityIsRequired) {
  // left0 ~ right0 and right1, but right0's top-1 is left0 while right1's
  // top-1 is left1: with k=1 only mutual pairs survive.
  embed::EmbeddingMatrix left(2, 2);
  left.Row(0)[0] = 1.0f;
  left.Row(1)[0] = 0.9f;
  left.Row(1)[1] = 0.1f;
  embed::EmbeddingMatrix right(2, 2);
  right.Row(0)[0] = 1.0f;                      // closest to left0
  right.Row(1)[0] = 0.92f;
  right.Row(1)[1] = 0.08f;                     // closest to left1
  MutualTopKOptions options;
  options.k = 1;
  options.max_distance = 1.0f;
  auto pairs = MutualTopK(left, right, BruteForceIndexFactory{}, options);
  // Every returned pair must be mutual top-1.
  for (const auto& p : pairs) {
    EXPECT_EQ(p.left, p.right);
  }
}

TEST(MutualTopKTest, LargerKIsSuperset) {
  auto f = PlantedMatches(150, 40, 25);
  const BruteForceIndexFactory exact;
  MutualTopKOptions k1;
  k1.k = 1;
  k1.max_distance = 0.5f;
  MutualTopKOptions k3 = k1;
  k3.k = 3;
  auto pairs1 = MutualTopK(f.left, f.right, exact, k1);
  auto pairs3 = MutualTopK(f.left, f.right, exact, k3);
  EXPECT_GE(pairs3.size(), pairs1.size());
  // Every k=1 pair must appear among the k=3 pairs.
  auto key = [](const MutualPair& p) { return p.left * 1000003 + p.right; };
  std::unordered_set<size_t> set3;
  for (const auto& p : pairs3) set3.insert(key(p));
  for (const auto& p : pairs1) EXPECT_TRUE(set3.count(key(p)) > 0);
}

TEST(MutualTopKTest, EmptyInputs) {
  embed::EmbeddingMatrix empty;
  auto f = PlantedMatches(10, 5, 26);
  const HnswIndexFactory hnsw;
  MutualTopKOptions options;
  EXPECT_TRUE(MutualTopK(empty, f.right, hnsw, options).empty());
  EXPECT_TRUE(MutualTopK(f.left, empty, hnsw, options).empty());
}

TEST(MutualTopKTest, HnswParallelBuildRecoversPlanted) {
  // Large enough (past 1,024 rows) that both side builds insert most rows in
  // pooled multi-row rounds. The graph does not depend on the pool, so the
  // pairs must equal a serial build's, and recover the planted matches.
  constexpr size_t kPlanted = 300;
  auto f = PlantedMatches(1500, kPlanted, 61);
  MutualTopKOptions options;
  options.k = 1;
  options.max_distance = 0.05f;
  util::ThreadPool pool(4);
  auto pairs =
      MutualTopK(f.left, f.right, HnswIndexFactory{}, options, &pool);
  size_t recovered = 0;
  for (const auto& p : pairs) {
    if (p.left == p.right && p.left < kPlanted) ++recovered;
  }
  EXPECT_GE(recovered, kPlanted * 9 / 10)
      << "parallel-built HNSW lost planted matches (" << recovered << "/"
      << kPlanted << ")";
  auto serial = MutualTopK(f.left, f.right, HnswIndexFactory{}, options);
  ASSERT_EQ(pairs.size(), serial.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(pairs[i].left, serial[i].left);
    EXPECT_EQ(pairs[i].right, serial[i].right);
    EXPECT_EQ(pairs[i].distance, serial[i].distance);
  }
}

TEST(MutualTopKTest, ParallelMatchesSerial) {
  auto f = PlantedMatches(400, 80, 27);
  const BruteForceIndexFactory exact;
  MutualTopKOptions options;
  options.max_distance = 0.3f;
  auto serial = MutualTopK(f.left, f.right, exact, options, nullptr);
  util::ThreadPool pool(4);
  auto parallel = MutualTopK(f.left, f.right, exact, options, &pool);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].left, parallel[i].left);
    EXPECT_EQ(serial[i].right, parallel[i].right);
  }
}

// ------------------------------------------------------ ExactMutualTopK --

// The cosine distance of two rows with BruteForceIndex::Search's arithmetic.
float ExactCosineDistance(std::span<const float> a, std::span<const float> b) {
  return 1.0f - embed::CosineSimilarityFromParts(
                    embed::Dot(a, b), embed::Dot(a, a), embed::Dot(b, b));
}

// Eq. 1 the naive way: the full n_l x n_r distance table, every row and
// every column sorted under (distance, id), then the intersection of the
// two top-k relations under the cap m.
std::vector<MutualPair> NaiveMutualTopK(const embed::EmbeddingMatrix& left,
                                        const embed::EmbeddingMatrix& right,
                                        size_t k, float m) {
  const size_t nl = left.num_rows();
  const size_t nr = right.num_rows();
  std::vector<float> table(nl * nr);
  for (size_t i = 0; i < nl; ++i) {
    for (size_t j = 0; j < nr; ++j) {
      table[i * nr + j] = ExactCosineDistance(left.Row(i), right.Row(j));
    }
  }
  auto top_k = [k](std::vector<std::pair<float, size_t>> ranked) {
    std::sort(ranked.begin(), ranked.end());  // (distance, id)
    std::vector<size_t> ids;
    for (size_t r = 0; r < std::min(k, ranked.size()); ++r) {
      ids.push_back(ranked[r].second);
    }
    return ids;
  };
  std::vector<std::vector<size_t>> col_top(nr);
  for (size_t j = 0; j < nr; ++j) {
    std::vector<std::pair<float, size_t>> ranked;
    for (size_t i = 0; i < nl; ++i) ranked.emplace_back(table[i * nr + j], i);
    col_top[j] = top_k(std::move(ranked));
  }
  std::vector<MutualPair> out;
  for (size_t i = 0; i < nl; ++i) {
    std::vector<std::pair<float, size_t>> ranked;
    for (size_t j = 0; j < nr; ++j) ranked.emplace_back(table[i * nr + j], j);
    for (size_t j : top_k(std::move(ranked))) {
      const float d = table[i * nr + j];
      const auto& col = col_top[j];
      if (d <= m && std::find(col.begin(), col.end(), i) != col.end()) {
        out.push_back({i, j, d});
      }
    }
  }
  std::sort(out.begin(), out.end(), [](const MutualPair& a, const MutualPair& b) {
    return std::make_pair(a.left, a.right) < std::make_pair(b.left, b.right);
  });
  return out;
}

// The two-pass route the exact scan retired: an fp32 BruteForceIndex per
// side, one Search per row in each direction, then the intersection.
std::vector<MutualPair> TwoPassBruteForce(const embed::EmbeddingMatrix& left,
                                          const embed::EmbeddingMatrix& right,
                                          size_t k, float m) {
  std::vector<MutualPair> out;
  if (left.num_rows() == 0 || right.num_rows() == 0) return out;
  BruteForceIndex left_index(left.dim(), Metric::kCosine);
  BruteForceIndex right_index(right.dim(), Metric::kCosine);
  left_index.AddBatch(left);
  right_index.AddBatch(right);
  for (size_t i = 0; i < left.num_rows(); ++i) {
    for (const Neighbor& n : right_index.Search(left.Row(i), k)) {
      if (n.distance > m) continue;
      for (const Neighbor& back : left_index.Search(right.Row(n.id), k)) {
        if (back.id == i) out.push_back({i, n.id, n.distance});
      }
    }
  }
  std::sort(out.begin(), out.end(), [](const MutualPair& a, const MutualPair& b) {
    return std::make_pair(a.left, a.right) < std::make_pair(b.left, b.right);
  });
  return out;
}

// The pairs as plain words (MutualPair has tail padding), so two pair lists
// compare with memcmp, distance bits included.
std::vector<uint64_t> PairWords(const std::vector<MutualPair>& pairs) {
  std::vector<uint64_t> words;
  for (const MutualPair& p : pairs) {
    words.push_back(p.left);
    words.push_back(p.right);
    words.push_back(std::bit_cast<uint32_t>(p.distance));
  }
  return words;
}

void ExpectSamePairs(const std::vector<MutualPair>& got,
                     const std::vector<MutualPair>& want,
                     const std::string& what) {
  const std::vector<uint64_t> a = PairWords(got);
  const std::vector<uint64_t> b = PairWords(want);
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(0, a.empty() ? 0 : std::memcmp(a.data(), b.data(),
                                          a.size() * sizeof(uint64_t)))
      << what;
}

// Rows on a coarse grid {-1, 0, 1}^dim, normalized: many distinct rows share
// a distance, so the (distance, id) tie-break decides most top-k lists.
embed::EmbeddingMatrix GridVectors(size_t n, size_t dim, uint64_t seed) {
  util::Rng rng(seed);
  embed::EmbeddingMatrix m(n, dim);
  for (size_t i = 0; i < n; ++i) {
    auto row = m.Row(i);
    for (auto& x : row) x = static_cast<float>(rng.NextBounded(3)) - 1.0f;
    row[i % dim] = 1.0f;  // never all-zero
    embed::L2NormalizeInPlace(row);
  }
  return m;
}

// One oracle input: the two sides and the cap.
struct OracleCase {
  std::string name;
  embed::EmbeddingMatrix left;
  embed::EmbeddingMatrix right;
  float max_distance;
};

// Right row 11 is left row 7 nudged, so the two are mutual nearest at a
// small nonzero distance, and the cap is set to exactly that distance.
OracleCase AtCapCase() {
  OracleCase c{"at_cap", RandomVectors(45, 12, 109),
               RandomVectors(59, 12, 110), 0.0f};
  auto near = c.right.Row(11);
  std::copy(c.left.Row(7).begin(), c.left.Row(7).end(), near.begin());
  near[0] += 0.05f;
  embed::L2NormalizeInPlace(near);
  c.max_distance = ExactCosineDistance(c.left.Row(7), c.right.Row(11));
  return c;
}

// Seeded inputs covering what the (distance, id) order and the cap must
// get right. Row counts avoid multiples of the 32 x 256 tile.
std::vector<OracleCase> OracleCases() {
  std::vector<OracleCase> cases;
  cases.push_back({"random", RandomVectors(77, 24, 101),
                   RandomVectors(300, 24, 102), 0.9f});
  cases.push_back({"random_wide", RandomVectors(290, 40, 103),
                   RandomVectors(531, 40, 104), 2.0f});

  // Duplicates at distance exactly 0: right holds copies of left rows, some
  // twice (equal distances broken by id), and left repeats a row too.
  {
    OracleCase c{"duplicates", RandomVectors(65, 16, 105),
                 RandomVectors(97, 16, 106), 0.0f};
    for (size_t i = 0; i < 40; ++i) {
      auto src = c.left.Row(i % 33);
      auto dst = c.right.Row(i * 2);
      std::copy(src.begin(), src.end(), dst.begin());
    }
    auto src = c.left.Row(3);
    auto dst = c.left.Row(64);
    std::copy(src.begin(), src.end(), dst.begin());
    cases.push_back(std::move(c));
  }
  cases.push_back({"ties", GridVectors(70, 6, 107), GridVectors(261, 6, 108),
                   0.6f});

  cases.push_back(AtCapCase());
  cases.push_back({"empty_left", embed::EmbeddingMatrix(0, 8),
                   RandomVectors(10, 8, 111), 2.0f});
  cases.push_back({"empty_right", RandomVectors(10, 8, 112),
                   embed::EmbeddingMatrix(0, 8), 2.0f});
  cases.push_back({"one_row", RandomVectors(1, 8, 113),
                   RandomVectors(33, 8, 114), 2.0f});
  return cases;
}

void CheckAgainstOracles(util::ThreadPool* pool) {
  for (const OracleCase& c : OracleCases()) {
    for (size_t k : {1u, 3u}) {
      const std::string what = c.name + " k=" + std::to_string(k) +
                               " threads=" +
                               std::to_string(pool ? pool->num_threads() : 0);
      MutualTopKOptions options;
      options.k = k;
      options.max_distance = c.max_distance;
      const std::vector<MutualPair> got =
          ExactMutualTopK(c.left, c.right, options, pool);
      if (c.left.num_rows() > 0 && c.right.num_rows() > 0) {
        EXPECT_FALSE(got.empty()) << what << ": the case tests nothing";
      }
      ExpectSamePairs(got, NaiveMutualTopK(c.left, c.right, k, c.max_distance),
                      what + " vs naive");
      ExpectSamePairs(got,
                      TwoPassBruteForce(c.left, c.right, k, c.max_distance),
                      what + " vs two-pass");
      // MutualTopK takes the same kernel when the budget says scan.
      options.exact_scan_budget = kAlwaysScan;
      ExpectSamePairs(MutualTopK(c.left, c.right, HnswIndexFactory{}, options,
                                 pool),
                      got, what + " via MutualTopK");
    }
  }
}

TEST(ExactMutualTopKTest, MatchesNaiveAndTwoPassOracles) {
  CheckAgainstOracles(nullptr);
}

TEST(ExactMutualTopKTest, ParallelMatchesOraclesOnOneTwoFourThreads) {
  for (size_t threads : {1u, 2u, 4u}) {
    util::ThreadPool pool(threads);
    CheckAgainstOracles(&pool);
  }
}

TEST(ExactMutualTopKTest, CapHoldsExactDuplicatesAndPairsAtM) {
  auto f = PlantedMatches(100, 30, 23);
  MutualTopKOptions options;
  options.max_distance = 0.0f;  // only exact duplicates survive
  EXPECT_EQ(ExactMutualTopK(f.left, f.right, options).size(), 30u);
  options.max_distance = -1.0f;  // nothing can pass
  EXPECT_TRUE(ExactMutualTopK(f.left, f.right, options).empty());

  const OracleCase c = AtCapCase();
  ASSERT_GT(c.max_distance, 0.0f);
  options.max_distance = c.max_distance;
  auto has_pair = [&] {
    for (const MutualPair& p : ExactMutualTopK(c.left, c.right, options)) {
      if (p.left == 7 && p.right == 11) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_pair()) << "a pair exactly at m is kept";
  options.max_distance = std::nextafter(c.max_distance, -1.0f);
  EXPECT_FALSE(has_pair()) << "a pair just past m is dropped";
}

TEST(ScansExactlyTest, BudgetRule) {
  MutualTopKOptions options;
  EXPECT_FALSE(ScansExactly(options, 1, 1));  // budget 0: never
  options.exact_scan_budget = kAlwaysScan;
  EXPECT_TRUE(ScansExactly(options, size_t{1} << 32, size_t{1} << 32));
  options.exact_scan_budget = 10.0;  // n_l * n_r <= 10 * (n_l + n_r)
  EXPECT_TRUE(ScansExactly(options, 20, 20));   // 400 <= 400
  EXPECT_FALSE(ScansExactly(options, 21, 20));  // 420 > 410
  EXPECT_TRUE(ScansExactly(options, 1000, 5));  // 5000 <= 10050
  options.metric = Metric::kEuclidean;  // the kernel is cosine only
  EXPECT_FALSE(ScansExactly(options, 1, 1));
}

TEST(MutualTopKTest, ScanBudgetDecidesWhetherTheFactoryIsAsked) {
  class CountingFactory : public VectorIndexFactory {
   public:
    std::unique_ptr<VectorIndex> Create(size_t dim,
                                        Metric metric) const override {
      ++creations;
      return std::make_unique<BruteForceIndex>(dim, metric);
    }
    mutable size_t creations = 0;
  };
  auto f = PlantedMatches(60, 20, 31);
  MutualTopKOptions options;
  options.max_distance = 0.5f;
  CountingFactory factory;
  options.exact_scan_budget = 30.0;  // 3600 <= 30 * 120: scan
  auto scanned = MutualTopK(f.left, f.right, factory, options);
  EXPECT_EQ(factory.creations, 0u);
  options.exact_scan_budget = 29.0;  // 3600 > 29 * 120: two indexes
  auto indexed = MutualTopK(f.left, f.right, factory, options);
  EXPECT_EQ(factory.creations, 2u);
  ExpectSamePairs(scanned, indexed, "scan vs fp32 index route");
}

}  // namespace
}  // namespace multiem::ann
