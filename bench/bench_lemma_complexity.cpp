// Validates Lemmas 1-3 / Figure 2: the scaling of the three multi-table
// merge schedules in the number of sources S at fixed per-table size n.
//   pairwise     T_p(S,n) >= O(S^2 k n log n)   (Fig. 2a)
//   chain        T_c(S,n) >= O(S^2 k n log n)   (Fig. 2c, growing base)
//   hierarchical T(S,n)   =  O(S k n logS logn) (Fig. 2b, MultiEM)
//
// All three schedules run on identical MergeTables with the same two-table
// merge primitive, so the measured difference is purely the schedule.
// Shape target: hierarchical grows ~S logS while pairwise/chain grow ~S^2 —
// the ratio pairwise/hierarchical should increase roughly linearly in S.
// Also includes the HNSW-vs-exact ablation inside the hierarchical schedule.

#include "bench/bench_common.h"

#include "core/merge_plan.h"
#include "core/merge_table.h"
#include "core/registry.h"
#include "core/two_table_merger.h"
#include "datagen/music.h"
#include "embed/hashing_encoder.h"
#include "embed/serialize.h"

namespace multiem::bench {
namespace {

struct Workload {
  core::EntityEmbeddingStore store;
  std::vector<core::MergeTable> Tables() const {
    std::vector<core::MergeTable> out;
    for (size_t s = 0; s < store.num_sources(); ++s) {
      out.push_back(
          core::MergeTable::FromSource(store, static_cast<uint32_t>(s)));
    }
    return out;
  }
};

Workload MakeWorkload(size_t sources, size_t rows_per_source) {
  datagen::MusicConfig config;
  config.num_sources = sources;
  config.presence_prob = 1.0;
  config.num_entities = rows_per_source;
  config.seed = 99;
  datagen::MultiSourceBenchmark bench = datagen::GenerateMusic(config);

  embed::HashingSentenceEncoder encoder;
  std::vector<std::string> corpus;
  std::vector<std::vector<std::string>> per_source;
  for (const auto& t : bench.tables) {
    per_source.push_back(embed::SerializeTable(t));
    corpus.insert(corpus.end(), per_source.back().begin(),
                  per_source.back().end());
  }
  encoder.FitFrequencies(corpus);
  Workload w;
  for (const auto& texts : per_source) {
    w.store.AddSource(encoder.EncodeBatch(texts));
  }
  return w;
}

// The ANN backend every schedule merges with, resolved from the
// index-factory registry so config.index_name selects HNSW vs exact KNN, as
// in the pipeline proper.
std::unique_ptr<ann::VectorIndexFactory> IndexFactoryFor(
    const core::MultiEmConfig& config) {
  auto factory = core::IndexFactories().Create(config.index_name, config);
  factory.status().CheckOk();
  return std::move(*factory);
}

// Pairwise schedule (Fig. 2a): run the two-table merge on every source pair.
double TimePairwise(const Workload& w, const core::MultiEmConfig& config) {
  const auto factory = IndexFactoryFor(config);
  core::TwoTableMerger merger(config, &w.store, *factory);
  auto tables = w.Tables();
  util::WallTimer timer;
  for (size_t i = 0; i < tables.size(); ++i) {
    for (size_t j = i + 1; j < tables.size(); ++j) {
      core::MergeTable merged = merger.Merge(tables[i], tables[j]);
      (void)merged;
    }
  }
  return timer.ElapsedSeconds();
}

// Chain schedule (Fig. 2c): fold sources into a growing base.
double TimeChain(const Workload& w, const core::MultiEmConfig& config) {
  const auto factory = IndexFactoryFor(config);
  core::TwoTableMerger merger(config, &w.store, *factory);
  auto tables = w.Tables();
  util::WallTimer timer;
  core::MergeTable base = std::move(tables[0]);
  for (size_t s = 1; s < tables.size(); ++s) {
    base = merger.Merge(base, tables[s]);
  }
  return timer.ElapsedSeconds();
}

// Hierarchical schedule (Fig. 2b): MultiEM's Algorithm 2.
double TimeHierarchical(const Workload& w, const core::MultiEmConfig& config) {
  const auto factory = IndexFactoryFor(config);
  core::TwoTableMerger merger(config, &w.store, *factory);
  const core::MergePlan plan =
      core::MergePlan::Build(w.store.num_sources(), config.seed);
  std::vector<core::MergeSource> slots;
  for (core::MergeTable& t : w.Tables()) {
    slots.push_back(core::MergeSource::FromTable(std::move(t)));
  }
  util::WallTimer timer;
  core::ExecuteMergePlan(plan, slots, merger, {}).CheckOk();
  return timer.ElapsedSeconds();
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  size_t n = static_cast<size_t>(flags.GetDouble("n", 400));

  // Every merge builds HNSW: under the default "hybrid" index these
  // merges are small enough to scan exactly, and both sections time the
  // HNSW merges they describe.
  core::MultiEmConfig config;
  config.m = 0.5f;
  config.k = 1;
  config.index_name = core::kHnswIndexName;

  std::printf("=== Lemmas 1-3: merge-schedule scaling (fixed n=%zu rows per "
              "source) ===\n\n", n);
  std::printf("%4s %12s %12s %12s %14s %14s\n", "S", "pairwise(s)",
              "chain(s)", "hierarch(s)", "pw/hier ratio", "chain/hier");
  for (size_t sources : {2, 4, 8, 16}) {
    std::fprintf(stderr, "[lemma] S=%zu ...\n", sources);
    Workload w = MakeWorkload(sources, n);
    double pairwise = TimePairwise(w, config);
    double chain = TimeChain(w, config);
    double hierarchical = TimeHierarchical(w, config);
    std::printf("%4zu %12.3f %12.3f %12.3f %14.2f %14.2f\n", sources,
                pairwise, chain, hierarchical, pairwise / hierarchical,
                chain / hierarchical);
  }

  std::printf("\n--- ablation: HNSW vs exact KNN inside the hierarchical "
              "schedule ---\n");
  std::printf("%6s %12s %12s\n", "rows", "hnsw(s)", "exact(s)");
  for (size_t rows : {500, 1000, 2000, 4000}) {
    std::fprintf(stderr, "[lemma] ablation rows=%zu ...\n", rows);
    Workload w = MakeWorkload(4, rows);
    core::MultiEmConfig hnsw_config = config;
    core::MultiEmConfig exact_config = config;
    exact_config.index_name = core::kBruteForceIndexName;
    double hnsw = TimeHierarchical(w, hnsw_config);
    double exact = TimeHierarchical(w, exact_config);
    std::printf("%6zu %12.3f %12.3f\n", rows, hnsw, exact);
  }
  std::printf("\nShape: pw/hier and chain/hier ratios grow with S "
              "(S^2 vs S logS);\nthe exact scan costs ~rows^2, so its lead "
              "over HNSW shrinks as rows grow\n(crossover: docs/API.md, "
              "\"Merge index choice\").\n");
  return 0;
}

}  // namespace
}  // namespace multiem::bench

int main(int argc, char** argv) { return multiem::bench::Main(argc, argv); }
