// Music-catalog integration: five music services export overlapping song
// catalogs with inconsistent metadata (per-source ids, re-measured track
// lengths, drifting years). The task is to produce one integrated catalog —
// the MSCD/Music benchmark family of the paper.
//
//   $ ./examples/music_dedup
//
// Shows the full feature surface: automated attribute selection report,
// serial vs parallel run, per-phase timing, accuracy against ground truth,
// the ablation switches, and component swapping through the registries
// (index_name = "brute_force" replaces the default "hybrid" index with the
// exact-KNN backend without touching the pipeline).

#include <cstdio>
#include <utility>

#include "core/pipeline.h"
#include "datagen/music.h"
#include "eval/metrics.h"

using namespace multiem;

namespace {

// Builds and runs in one step; every variant below goes through the same
// builder API the production callers use.
core::PipelineResult RunVariant(const core::MultiEmConfig& config,
                                const datagen::MultiSourceBenchmark& bench) {
  auto pipeline = core::PipelineBuilder(config).Build();
  pipeline.status().CheckOk();
  auto result = pipeline->Run(bench.tables);
  result.status().CheckOk();
  return std::move(*result);
}

void Report(const char* label, const core::PipelineResult& result,
            const datagen::MultiSourceBenchmark& bench) {
  eval::Prf tuple_prf = eval::EvaluateTuples(result.ToTupleSet(), bench.truth);
  eval::Prf pair_prf = eval::EvaluatePairs(result.ToTupleSet(), bench.truth);
  std::printf("%-22s tuples=%-5zu F1=%5.1f%% pair-F1=%5.1f%% total=%.2fs "
              "(S %.2f / R %.2f / M %.2f / P %.2f)\n",
              label, result.tuples.size(), tuple_prf.f1 * 100,
              pair_prf.f1 * 100, result.timings.TotalSeconds(),
              result.timings.Get(core::kPhaseSelection),
              result.timings.Get(core::kPhaseRepresentation),
              result.timings.Get(core::kPhaseMerging),
              result.timings.Get(core::kPhasePruning));
}

}  // namespace

int main() {
  datagen::MusicConfig data_config;
  data_config.num_entities = 1500;
  datagen::MultiSourceBenchmark bench = datagen::GenerateMusic(data_config);
  std::printf("catalog: %zu sources, %zu rows, %zu ground-truth groups\n\n",
              bench.tables.size(), bench.NumEntities(), bench.NumTuples());

  core::MultiEmConfig config;
  config.m = 0.5f;
  config.gamma = 0.9;

  // Full pipeline, serial.
  core::PipelineResult serial = RunVariant(config, bench);
  std::printf("attribute selection kept:");
  for (const auto& name : serial.selection.selected_names) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\n(noisy id/number/length/year/language rejected, as in "
              "Table VII)\n\n");
  Report("MultiEM (serial)", serial, bench);

  // Parallel variant: same tuples, faster merge/prune.
  core::MultiEmConfig parallel_config = config;
  parallel_config.num_threads = 0;  // hardware concurrency
  core::PipelineResult parallel = RunVariant(parallel_config, bench);
  Report("MultiEM (parallel)", parallel, bench);
  std::printf("parallel tuples identical to serial: %s\n\n",
              serial.ToTupleSet().tuples() == parallel.ToTupleSet().tuples()
                  ? "yes"
                  : "NO (bug!)");

  // Ablations (Table IV's w/o EER and w/o DP rows).
  core::MultiEmConfig no_eer = config;
  no_eer.enable_attribute_selection = false;
  Report("w/o attribute sel.", RunVariant(no_eer, bench), bench);

  core::MultiEmConfig no_dp = config;
  no_dp.enable_pruning = false;
  Report("w/o pruning", RunVariant(no_dp, bench), bench);

  // Component swap through the registry: the exact brute-force KNN backend
  // replaces the default "hybrid" index by name — no pipeline changes. The
  // hybrid already scans this corpus's merges exactly, so the tuples agree.
  core::MultiEmConfig exact = config;
  exact.index_name = "brute_force";
  Report("exact KNN index", RunVariant(exact, bench), bench);

  std::printf("\nmerge levels: %zu; mutual pairs found: %zu; outliers "
              "pruned: %zu\n",
              serial.merge_stats.levels.size(),
              serial.merge_stats.total_mutual_pairs,
              serial.prune_stats.outliers_removed);
  return 0;
}
