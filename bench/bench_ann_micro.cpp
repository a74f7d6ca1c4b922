// Microbenchmark of the ANN layer behind the merging phase: HNSW build
// throughput (serial vs parallel AddBatch), single-thread search QPS,
// recall@10 against the exact brute-force oracle, and the persistence path
// (Save/Load MB/s plus reload-to-first-query latency — the restart cost a
// serving deployment actually pays), at each requested thread count.
// Supports the merging-phase design choice of the paper (HNSW balances
// accuracy and efficiency; Section III-C) and tracks the flat-slab layout
// and the pooled insert rounds, which build the same graph on any thread
// count.
//
// Besides the printed table, the run is written to a machine-readable JSON
// file (default BENCH_ann.json; --json= to rename, --json=- to disable).
// CI gates on it: the 4-thread build must beat the 1-thread build on the
// same corpus, and recall@10 must stay >= 0.95.
//
// A second section compares vector-storage quantization (--quant=int8,fp16;
// --quant=none disables): a corpus of --quant_n vectors (default: same as
// --n, regenerated when different) is indexed fp32, int8 and fp16 and each
// build reports its MemoryUsage() breakdown (fp32 payload vs quantized codes
// vs graph), single-thread QPS, and recall@10 with the fp32 rerank.
// CI gates on this too: int8 code bytes must be <= 1/3 of the fp32 payload,
// int8 QPS strictly higher than fp32, and recall@10 >= 0.95 for every mode.
// The QPS gate only holds in the regime quantization targets — a corpus
// whose fp32 payload exceeds the last-level cache, where the candidate scan
// is DRAM-bandwidth-bound and int8 moves ~4x fewer bytes per distance. With
// the fp32 payload cache-resident the scan is compute-bound and the
// asymmetric int8 kernel (int8->fp32 convert feeding the FMA chain) costs
// more uops per element than the plain fp32 dot, so small corpora show int8
// *slower*; CI therefore passes --quant_n=300000 (460 MB fp32) to put the
// comparison firmly past any runner's LLC while the thread-scaling section
// keeps the quick 20k corpus.
//
// A third section calibrates the per-merge route choice of the default
// "hybrid" index (core::MutualOptionsFromConfig): square merges of n x n
// rows, n in kCalibrationSizes, at 64-d with lean HNSW knobs (8 / 40,
// ef_search 32) and at 384-d with the default knobs (16 / 100, ef_search
// 48). Each shape times ann::MutualTopK through the exact scan and through
// two HNSW builds, at every --threads count, and records which route the
// rule picks and the rule's ratio n_l * n_r / ((n_l + n_r) *
// ef_construction * m), which it compares with kHybridScanFactor. Half of
// the right rows are perturbed copies of left rows, as in a merge of
// overlapping sources.
// CI prints the "calibration" JSON keys and gates nothing on them.
//
// The corpus is clustered — duplicate groups of `cluster_size` perturbed
// copies around random unit centers — because that is what the merging
// phase actually searches (near-duplicate entity embeddings), and queries
// are fresh perturbations of existing groups. Uniform random unit vectors
// in 384-d are the distance-concentration worst case (recall@10 plateaus
// near 0.8 regardless of index quality); pass --cluster_size=1 to measure
// that regime explicitly.
//
// Flags: --n=20000        corpus size
//        --dim=384        vector dimensionality
//        --k=10           recall depth
//        --queries=200    number of distinct queries
//        --threads=1,4    comma-separated thread counts (1 = serial build)
//        --cluster_size=10 --spread=0.5   duplicate-group shape
//        --m=16 --ef_construction=200 --ef_search=128   HNSW knobs
//        --min_search_seconds=1.0  per-run search measurement window
//        --quant=int8,fp16  quantization modes to compare ("none" disables)
//        --quant_n=N        corpus size for the quantization section
//                           (default: --n; CI uses 300000, see above)
//        --rerank_factor=4  fp32 rerank width multiplier for quantized runs
//        --json=PATH      output JSON path ("-" disables)

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "ann/brute_force.h"
#include "ann/hnsw.h"
#include "ann/index_io.h"
#include "ann/mutual_topk.h"
#include "ann/quant.h"
#include "bench/bench_common.h"
#include "core/registry.h"
#include "core/two_table_merger.h"
#include "util/thread_pool.h"

namespace multiem::bench {
namespace {

void FillUnitNormal(std::span<float> row, util::Rng& rng) {
  for (auto& x : row) x = static_cast<float>(rng.Normal());
  embed::L2NormalizeInPlace(row);
}

// `spread` scales a unit-norm perturbation added to the unit center, so the
// expected intra-group cosine similarity is ~1/sqrt(1 + spread^2) (0.89 at
// the 0.5 default — comparable to near-duplicate entity embeddings).
void FillPerturbed(std::span<float> row, std::span<const float> center,
                   double spread, util::Rng& rng) {
  FillUnitNormal(row, rng);
  for (size_t d = 0; d < row.size(); ++d) {
    row[d] = center[d] + static_cast<float>(spread) * row[d];
  }
  embed::L2NormalizeInPlace(row);
}

struct AnnCorpus {
  embed::EmbeddingMatrix centers;  // one unit vector per duplicate group
  embed::EmbeddingMatrix corpus;
  embed::EmbeddingMatrix queries;
};

AnnCorpus MakeCorpus(size_t n, size_t dim, size_t num_queries,
                     size_t cluster_size, double spread, uint64_t seed) {
  util::Rng rng(seed);
  AnnCorpus out;
  if (cluster_size < 1) cluster_size = 1;
  const size_t num_centers = (n + cluster_size - 1) / cluster_size;
  out.centers = embed::EmbeddingMatrix(num_centers, dim);
  for (size_t c = 0; c < num_centers; ++c) {
    FillUnitNormal(out.centers.Row(c), rng);
  }
  out.corpus = embed::EmbeddingMatrix(n, dim);
  for (size_t i = 0; i < n; ++i) {
    if (cluster_size == 1) {
      FillUnitNormal(out.corpus.Row(i), rng);
    } else {
      FillPerturbed(out.corpus.Row(i), out.centers.Row(i / cluster_size),
                    spread, rng);
    }
  }
  out.queries = embed::EmbeddingMatrix(num_queries, dim);
  for (size_t q = 0; q < num_queries; ++q) {
    if (cluster_size == 1) {
      FillUnitNormal(out.queries.Row(q), rng);
    } else {
      const size_t group = static_cast<size_t>(rng.UniformDouble() *
                                               static_cast<double>(num_centers));
      FillPerturbed(out.queries.Row(q),
                    out.centers.Row(std::min(group, num_centers - 1)), spread,
                    rng);
    }
  }
  return out;
}

/// Exact top-k ground truth via brute force (setup, not measured; a
/// hardware-wide pool keeps the scan off the critical path).
std::vector<std::unordered_set<size_t>> ExactTruth(
    const embed::EmbeddingMatrix& corpus, const embed::EmbeddingMatrix& queries,
    size_t k) {
  std::vector<std::unordered_set<size_t>> truth(queries.num_rows());
  util::ThreadPool setup_pool(0);
  ann::BruteForceIndex exact(corpus.dim(), ann::Metric::kCosine);
  exact.AddBatch(corpus, &setup_pool);
  util::ParallelFor(&setup_pool, queries.num_rows(), [&](size_t q) {
    for (const auto& hit : exact.Search(queries.Row(q), k)) {
      truth[q].insert(hit.id);
    }
  }, /*min_block_size=*/1);
  return truth;
}

/// Recall@k against `truth`, then single-thread QPS over the same query set
/// until the measurement window fills. Shared by the thread-scaling runs and
/// the quantization comparison so the two report comparable numbers.
struct SearchEval {
  double qps = 0.0;
  double recall = 0.0;
};

SearchEval EvalIndex(const ann::VectorIndex& index,
                     const embed::EmbeddingMatrix& queries, size_t k,
                     const std::vector<std::unordered_set<size_t>>& truth,
                     double min_search_seconds) {
  SearchEval out;
  const size_t num_queries = queries.num_rows();
  size_t found = 0;
  for (size_t q = 0; q < num_queries; ++q) {
    for (const auto& hit : index.Search(queries.Row(q), k)) {
      found += truth[q].count(hit.id);
    }
  }
  out.recall =
      static_cast<double>(found) / static_cast<double>(num_queries * k);

  size_t searches = 0;
  util::WallTimer search_timer;
  do {
    for (size_t q = 0; q < num_queries; ++q) {
      auto hits = index.Search(queries.Row(q), k);
      searches += hits.empty() ? 0 : 1;
    }
  } while (search_timer.ElapsedSeconds() < min_search_seconds);
  out.qps = static_cast<double>(searches) / search_timer.ElapsedSeconds();
  return out;
}

struct AnnRun {
  size_t num_threads = 1;
  double build_seconds = 0.0;
  double build_vectors_per_sec = 0.0;
  double search_qps = 0.0;
  double recall_at10 = 0.0;
  // Persistence path: artifact size, streaming rates, and the end-to-end
  // cold-start cost (LoadVectorIndex + the first Search) a restarted server
  // pays before answering its first query.
  double artifact_mb = 0.0;
  double save_mb_per_sec = 0.0;
  double load_mb_per_sec = 0.0;
  double reload_first_query_ms = 0.0;
};

// The merge sizes n of the route calibration's n x n shapes.
constexpr size_t kCalibrationSizes[] = {500, 1000, 2000, 4000, 8000, 12000};

// One timed merge shape of the route calibration.
struct CalibrationRun {
  size_t dim = 0;
  size_t hnsw_m = 0;
  size_t ef_construction = 0;
  size_t n = 0;
  size_t num_threads = 1;
  bool rule_scans = false;
  double rule_ratio = 0.0;
  double exact_seconds = 0.0;
  double hnsw_seconds = 0.0;
  size_t exact_pairs = 0;
  size_t hnsw_pairs = 0;
};

// Seconds per MutualTopK call, repeated until 0.3 s have passed.
double TimeMutualTopK(const embed::EmbeddingMatrix& left,
                      const embed::EmbeddingMatrix& right,
                      const ann::VectorIndexFactory& factory,
                      const ann::MutualTopKOptions& options,
                      util::ThreadPool* pool, size_t* pairs) {
  size_t calls = 0;
  util::WallTimer timer;
  do {
    *pairs = ann::MutualTopK(left, right, factory, options, pool).size();
    ++calls;
  } while (timer.ElapsedSeconds() < 0.3);
  return timer.ElapsedSeconds() / static_cast<double>(calls);
}

// The route calibration of the "hybrid" index (see the file comment).
std::vector<CalibrationRun> RunCalibration(
    const std::vector<size_t>& thread_counts) {
  struct Knobs {
    size_t dim, m, ef_construction, ef_search;
  };
  const Knobs kKnobs[] = {{64, 8, 40, 32}, {384, 16, 100, 48}};
  std::vector<CalibrationRun> runs;
  std::printf(
      "\n=== merge route calibration (hybrid scan factor %.1f, k=1, "
      "m=0.5) ===\n",
      core::kHybridScanFactor);
  std::printf("%6s %6s %7s %8s %8s %12s %12s %8s %10s %10s\n", "dim",
              "knobs", "n", "threads", "rule", "rule_ratio", "exact_s",
              "hnsw_s", "exact_prs", "hnsw_prs");
  for (const Knobs& knobs : kKnobs) {
    core::MultiEmConfig config;
    config.index_name = core::kHybridIndexName;
    config.m = 0.5f;
    config.hnsw_m = knobs.m;
    config.hnsw_ef_construction = knobs.ef_construction;
    config.hnsw_ef_search = knobs.ef_search;
    auto hnsw = core::IndexFactories().Create(core::kHnswIndexName, config);
    if (!hnsw.ok()) std::abort();
    const ann::MutualTopKOptions rule = core::MutualOptionsFromConfig(config);
    ann::MutualTopKOptions exact = rule;
    exact.exact_scan_budget = ann::kAlwaysScan;
    ann::MutualTopKOptions indexed = rule;
    indexed.exact_scan_budget = 0.0;
    for (size_t n : kCalibrationSizes) {
      util::Rng rng(n * 31 + knobs.dim);
      embed::EmbeddingMatrix left(n, knobs.dim);
      embed::EmbeddingMatrix right(n, knobs.dim);
      for (size_t i = 0; i < n; ++i) FillUnitNormal(left.Row(i), rng);
      for (size_t i = 0; i < n; ++i) {
        if (i % 2 == 0) {
          FillPerturbed(right.Row(i), left.Row(i), 0.3, rng);
        } else {
          FillUnitNormal(right.Row(i), rng);
        }
      }
      for (size_t t : thread_counts) {
        std::unique_ptr<util::ThreadPool> pool;
        if (t > 1) pool = std::make_unique<util::ThreadPool>(t);
        CalibrationRun run;
        run.dim = knobs.dim;
        run.hnsw_m = knobs.m;
        run.ef_construction = knobs.ef_construction;
        run.n = n;
        run.num_threads = t;
        run.rule_scans = ann::ScansExactly(rule, n, n);
        run.rule_ratio =
            static_cast<double>(n) * static_cast<double>(n) /
            (2.0 * static_cast<double>(n) *
             static_cast<double>(knobs.ef_construction * knobs.m));
        run.exact_seconds = TimeMutualTopK(left, right, **hnsw, exact,
                                           pool.get(), &run.exact_pairs);
        run.hnsw_seconds = TimeMutualTopK(left, right, **hnsw, indexed,
                                          pool.get(), &run.hnsw_pairs);
        std::printf("%6zu %3zu/%-3zu %7zu %8zu %8s %12.2f %12.4f %8.4f %10zu "
                    "%10zu\n",
                    run.dim, run.hnsw_m, run.ef_construction, run.n,
                    run.num_threads, run.rule_scans ? "exact" : "hnsw",
                    run.rule_ratio, run.exact_seconds, run.hnsw_seconds,
                    run.exact_pairs, run.hnsw_pairs);
        runs.push_back(run);
      }
    }
  }
  return runs;
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const size_t n = static_cast<size_t>(flags.GetDouble("n", 20000));
  const size_t dim = static_cast<size_t>(flags.GetDouble("dim", 384));
  const size_t k = static_cast<size_t>(flags.GetDouble("k", 10));
  const size_t num_queries =
      static_cast<size_t>(flags.GetDouble("queries", 200));
  const size_t cluster_size =
      static_cast<size_t>(flags.GetDouble("cluster_size", 10));
  const double spread = flags.GetDouble("spread", 0.5);
  const double min_search_seconds =
      flags.GetDouble("min_search_seconds", 1.0);
  const std::string json_path = flags.Get("json", "BENCH_ann.json");

  ann::HnswConfig config;
  config.m = static_cast<size_t>(flags.GetDouble("m", 16));
  config.m0 = config.m * 2;
  config.ef_construction =
      static_cast<size_t>(flags.GetDouble("ef_construction", 200));
  config.ef_search = static_cast<size_t>(flags.GetDouble("ef_search", 128));

  std::vector<size_t> thread_counts;
  for (const std::string& raw : util::Split(flags.Get("threads", "1,4"), ',')) {
    const std::string t(util::Trim(raw));
    if (t.empty()) continue;
    if (t.find_first_not_of("0123456789") != std::string::npos ||
        t.size() > 4 || std::stoul(t) == 0) {
      std::fprintf(stderr,
                   "[ann] bad --threads entry \"%s\" (want counts >= 1, "
                   "e.g. 1,4)\n",
                   t.c_str());
      return 1;
    }
    thread_counts.push_back(std::stoul(t));
  }
  if (thread_counts.empty()) thread_counts.push_back(1);

  std::printf("=== ANN micro: %zu vectors, dim %zu, k=%zu ===\n", n, dim, k);
  std::printf(
      "(hnsw m=%zu ef_construction=%zu ef_search=%zu; duplicate groups of "
      "%zu, spread %.2f)\n\n",
      config.m, config.ef_construction, config.ef_search, cluster_size,
      spread);

  std::fprintf(stderr, "[ann] generating corpus + queries ...\n");
  AnnCorpus data = MakeCorpus(n, dim, num_queries, cluster_size, spread, 1);
  const embed::EmbeddingMatrix& corpus = data.corpus;
  const embed::EmbeddingMatrix& queries = data.queries;

  std::fprintf(stderr, "[ann] computing brute-force ground truth ...\n");
  const std::vector<std::unordered_set<size_t>> truth =
      ExactTruth(corpus, queries, k);

  std::printf("%8s %12s %14s %12s %10s %10s %10s %14s\n", "threads",
              "build_s", "build_vec/s", "search_qps", "recall@10",
              "save_MB/s", "load_MB/s", "reload+1q_ms");

  std::vector<AnnRun> runs;
  for (size_t t : thread_counts) {
    std::fprintf(stderr, "[ann] building at %zu thread(s) ...\n", t);
    std::unique_ptr<util::ThreadPool> pool;
    if (t > 1) pool = std::make_unique<util::ThreadPool>(t);

    AnnRun run;
    run.num_threads = t;

    ann::HnswIndex index(dim, ann::Metric::kCosine, config);
    util::WallTimer build_timer;
    index.AddBatch(corpus, pool.get());
    run.build_seconds = build_timer.ElapsedSeconds();
    run.build_vectors_per_sec =
        run.build_seconds > 0.0 ? static_cast<double>(n) / run.build_seconds
                                : 0.0;

    // Recall of this build (every thread count builds the same graph, so
    // every run reads the same), then single-thread QPS over the same query
    // set until the measurement window fills.
    const SearchEval eval =
        EvalIndex(index, queries, k, truth, min_search_seconds);
    run.recall_at10 = eval.recall;
    run.search_qps = eval.qps;

    // Persistence: save rate, then the restart path — reload the artifact
    // and answer one query, which is the latency a redeployed server adds
    // before its first response.
    {
      const std::string artifact_path = "BENCH_ann_index.tmp";
      util::WallTimer save_timer;
      auto saved = index.Save(artifact_path);
      const double save_seconds = save_timer.ElapsedSeconds();
      if (!saved.ok()) {
        std::fprintf(stderr, "[ann] index save failed: %s\n",
                     saved.ToString().c_str());
        return 1;
      }
      std::FILE* f = std::fopen(artifact_path.c_str(), "rb");
      if (f == nullptr) {
        std::fprintf(stderr, "[ann] cannot reopen %s\n",
                     artifact_path.c_str());
        return 1;
      }
      std::fseek(f, 0, SEEK_END);
      run.artifact_mb =
          static_cast<double>(std::ftell(f)) / (1024.0 * 1024.0);
      std::fclose(f);
      run.save_mb_per_sec =
          save_seconds > 0.0 ? run.artifact_mb / save_seconds : 0.0;

      util::WallTimer reload_timer;
      auto loaded = ann::LoadVectorIndex(artifact_path);
      const double load_seconds = reload_timer.ElapsedSeconds();
      if (!loaded.ok()) {
        std::fprintf(stderr, "[ann] index load failed: %s\n",
                     loaded.status().ToString().c_str());
        return 1;
      }
      run.load_mb_per_sec =
          load_seconds > 0.0 ? run.artifact_mb / load_seconds : 0.0;
      auto first = (*loaded)->Search(queries.Row(0), k);
      run.reload_first_query_ms = reload_timer.ElapsedSeconds() * 1000.0;
      if (first.size() != std::min(k, n)) {
        std::fprintf(stderr, "[ann] reloaded index returned %zu hits\n",
                     first.size());
        return 1;
      }
      std::remove(artifact_path.c_str());
    }

    std::printf("%8zu %12.3f %14.0f %12.0f %10.4f %10.1f %10.1f %14.1f\n",
                run.num_threads, run.build_seconds, run.build_vectors_per_sec,
                run.search_qps, run.recall_at10, run.save_mb_per_sec,
                run.load_mb_per_sec, run.reload_first_query_ms);
    runs.push_back(run);
  }

  if (runs.size() > 1 && runs.front().num_threads == 1) {
    std::printf("\nbuild speedup vs 1 thread:");
    for (size_t i = 1; i < runs.size(); ++i) {
      std::printf("  %zux: %.2f", runs[i].num_threads,
                  runs[i].build_vectors_per_sec /
                      runs.front().build_vectors_per_sec);
    }
    std::printf("\n");
  }

  // ------------------------------------------------ quantization comparison
  // Same corpus indexed fp32 and under each requested quantization mode (at
  // the largest requested thread count — memory and recall are what this
  // section gates on, and the byte counts are exact regardless of build
  // parallelism). Reports the MemoryUsage() breakdown so the fp32 payload,
  // the quantized code plane, and the graph are visible separately;
  // hot_bytes is what the candidate scan actually touches.
  std::vector<ann::Quantization> quant_modes;
  for (const std::string& raw :
       util::Split(flags.Get("quant", "int8,fp16"), ',')) {
    const std::string t(util::Trim(raw));
    if (t.empty() || t == "none") continue;
    ann::Quantization mode;
    if (!ann::ParseQuantization(t, &mode)) {
      std::fprintf(stderr,
                   "[ann] bad --quant entry \"%s\" (want int8, fp16, or "
                   "none)\n",
                   t.c_str());
      return 1;
    }
    quant_modes.push_back(mode);
  }

  struct QuantRun {
    std::string mode;
    double build_seconds = 0.0;
    double search_qps = 0.0;
    double recall_at10 = 0.0;
    size_t fp32_bytes = 0;
    size_t quantized_bytes = 0;
    size_t graph_bytes = 0;
    size_t hot_bytes = 0;
  };
  std::vector<QuantRun> quant_runs;

  const size_t quant_n =
      static_cast<size_t>(flags.GetDouble("quant_n", static_cast<double>(n)));
  if (!quant_modes.empty()) {
    const size_t rerank_factor =
        static_cast<size_t>(flags.GetDouble("rerank_factor", 4));
    const size_t quant_threads =
        *std::max_element(thread_counts.begin(), thread_counts.end());
    std::unique_ptr<util::ThreadPool> pool;
    if (quant_threads > 1) {
      pool = std::make_unique<util::ThreadPool>(quant_threads);
    }

    // The comparison corpus: the thread-scaling one when --quant_n matches
    // --n, otherwise a fresh clustered corpus of quant_n vectors with its
    // own exact ground truth (see header: the QPS gate needs the fp32
    // payload past the LLC).
    AnnCorpus quant_data;
    std::vector<std::unordered_set<size_t>> quant_truth_storage;
    const embed::EmbeddingMatrix* quant_corpus = &corpus;
    const embed::EmbeddingMatrix* quant_queries = &queries;
    const std::vector<std::unordered_set<size_t>>* quant_truth = &truth;
    if (quant_n != n) {
      std::fprintf(stderr,
                   "[ann] generating %zu-vector quantization corpus ...\n",
                   quant_n);
      quant_data =
          MakeCorpus(quant_n, dim, num_queries, cluster_size, spread, 2);
      std::fprintf(stderr, "[ann] computing its ground truth ...\n");
      quant_truth_storage = ExactTruth(quant_data.corpus, quant_data.queries, k);
      quant_corpus = &quant_data.corpus;
      quant_queries = &quant_data.queries;
      quant_truth = &quant_truth_storage;
    }

    std::printf(
        "\n=== quantization: fp32 vs codes, %zu vectors (simd kernels %s) "
        "===\n",
        quant_n, ann::QuantSimdEnabled() ? "on" : "off");
    std::printf("%8s %12s %12s %10s %12s %12s %12s %12s\n", "mode", "build_s",
                "search_qps", "recall@10", "fp32_MB", "quant_MB", "graph_MB",
                "hot_MB");

    std::vector<ann::Quantization> modes;
    modes.push_back(ann::Quantization::kNone);  // the fp32 baseline row
    modes.insert(modes.end(), quant_modes.begin(), quant_modes.end());
    for (ann::Quantization mode : modes) {
      ann::HnswConfig quant_config = config;
      quant_config.quantization = mode;
      quant_config.rerank_factor = rerank_factor;

      QuantRun run;
      run.mode = mode == ann::Quantization::kNone
                     ? "fp32"
                     : std::string(ann::QuantizationName(mode));
      std::fprintf(stderr, "[ann] building %s index ...\n", run.mode.c_str());

      ann::HnswIndex index(dim, ann::Metric::kCosine, quant_config);
      util::WallTimer build_timer;
      index.AddBatch(*quant_corpus, pool.get());
      run.build_seconds = build_timer.ElapsedSeconds();

      const SearchEval eval = EvalIndex(index, *quant_queries, k, *quant_truth,
                                        min_search_seconds);
      run.search_qps = eval.qps;
      run.recall_at10 = eval.recall;

      const ann::MemoryBreakdown mem = index.MemoryUsage();
      run.fp32_bytes = mem.fp32_bytes;
      run.quantized_bytes = mem.quantized_bytes;
      run.graph_bytes = mem.graph_bytes;
      run.hot_bytes = mem.hot_bytes();

      constexpr double kMiB = 1024.0 * 1024.0;
      std::printf("%8s %12.3f %12.0f %10.4f %12.2f %12.2f %12.2f %12.2f\n",
                  run.mode.c_str(), run.build_seconds, run.search_qps,
                  run.recall_at10, static_cast<double>(run.fp32_bytes) / kMiB,
                  static_cast<double>(run.quantized_bytes) / kMiB,
                  static_cast<double>(run.graph_bytes) / kMiB,
                  static_cast<double>(run.hot_bytes) / kMiB);
      quant_runs.push_back(std::move(run));
    }

    for (size_t i = 1; i < quant_runs.size(); ++i) {
      std::printf(
          "%s vs fp32: %.2fx smaller codes, %.2fx smaller hot set, "
          "%.2fx qps\n",
          quant_runs[i].mode.c_str(),
          static_cast<double>(quant_runs[0].fp32_bytes) /
              static_cast<double>(quant_runs[i].quantized_bytes),
          static_cast<double>(quant_runs[0].hot_bytes) /
              static_cast<double>(quant_runs[i].hot_bytes),
          quant_runs[i].search_qps / quant_runs[0].search_qps);
    }
  }

  const std::vector<CalibrationRun> calibration =
      RunCalibration(thread_counts);

  if (json_path != "-" && !json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "[ann] cannot open %s for writing\n",
                   json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"ann_micro\",\n  \"n\": %zu,\n"
                 "  \"dim\": %zu,\n  \"k\": %zu,\n  \"num_queries\": %zu,\n"
                 "  \"hnsw\": {\"m\": %zu, \"ef_construction\": %zu, "
                 "\"ef_search\": %zu},\n  \"runs\": [\n",
                 n, dim, k, num_queries, config.m, config.ef_construction,
                 config.ef_search);
    for (size_t i = 0; i < runs.size(); ++i) {
      const AnnRun& r = runs[i];
      std::fprintf(f,
                   "    {\"num_threads\": %zu, \"build_seconds\": %.6f, "
                   "\"build_vectors_per_sec\": %.1f, \"search_qps\": %.1f, "
                   "\"recall_at10\": %.4f, \"artifact_mb\": %.2f, "
                   "\"save_mb_per_sec\": %.1f, \"load_mb_per_sec\": %.1f, "
                   "\"reload_first_query_ms\": %.2f}%s\n",
                   r.num_threads, r.build_seconds, r.build_vectors_per_sec,
                   r.search_qps, r.recall_at10, r.artifact_mb,
                   r.save_mb_per_sec, r.load_mb_per_sec,
                   r.reload_first_query_ms,
                   i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(f, "  ]");
    if (!quant_runs.empty()) {
      std::fprintf(f,
                   ",\n  \"quant\": {\n    \"simd\": %s,\n    \"n\": %zu,\n"
                   "    \"rerank_factor\": %zu,\n    \"runs\": [\n",
                   ann::QuantSimdEnabled() ? "true" : "false", quant_n,
                   static_cast<size_t>(flags.GetDouble("rerank_factor", 4)));
      for (size_t i = 0; i < quant_runs.size(); ++i) {
        const QuantRun& r = quant_runs[i];
        std::fprintf(f,
                     "      {\"mode\": \"%s\", \"build_seconds\": %.6f, "
                     "\"search_qps\": %.1f, \"recall_at10\": %.4f, "
                     "\"fp32_bytes\": %zu, \"quantized_bytes\": %zu, "
                     "\"graph_bytes\": %zu, \"hot_bytes\": %zu}%s\n",
                     r.mode.c_str(), r.build_seconds, r.search_qps,
                     r.recall_at10, r.fp32_bytes, r.quantized_bytes,
                     r.graph_bytes, r.hot_bytes,
                     i + 1 < quant_runs.size() ? "," : "");
      }
      std::fprintf(f, "    ]\n  }");
    }
    std::fprintf(f,
                 ",\n  \"calibration\": {\n    \"scan_factor\": %.1f,\n"
                 "    \"k\": 1,\n    \"max_distance\": 0.5,\n"
                 "    \"runs\": [\n",
                 core::kHybridScanFactor);
    for (size_t i = 0; i < calibration.size(); ++i) {
      const CalibrationRun& r = calibration[i];
      std::fprintf(f,
                   "      {\"dim\": %zu, \"hnsw_m\": %zu, "
                   "\"ef_construction\": %zu, \"n\": %zu, "
                   "\"num_threads\": %zu, \"rule\": \"%s\", "
                   "\"rule_ratio\": %.3f, \"exact_seconds\": %.6f, "
                   "\"hnsw_seconds\": %.6f, \"exact_pairs\": %zu, "
                   "\"hnsw_pairs\": %zu}%s\n",
                   r.dim, r.hnsw_m, r.ef_construction, r.n, r.num_threads,
                   r.rule_scans ? "exact" : "hnsw", r.rule_ratio,
                   r.exact_seconds, r.hnsw_seconds, r.exact_pairs,
                   r.hnsw_pairs, i + 1 < calibration.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n  }");
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    std::printf("JSON written to %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace multiem::bench

int main(int argc, char** argv) { return multiem::bench::Main(argc, argv); }
