// Quickstart: match four tiny product tables (the Figure 1 scenario) with
// the MultiEM pipeline in ~40 lines.
//
//   $ ./examples/quickstart
//
// Builds the tables in code, runs the pipeline, prints the matched tuples.

#include <cstdio>

#include "core/pipeline.h"

using multiem::core::MultiEmConfig;
using multiem::core::PipelineBuilder;
using multiem::table::Schema;
using multiem::table::Table;

int main() {
  // Four e-commerce sources listing overlapping products (Figure 1 of the
  // paper: same iPhone, four different titles).
  Schema schema({"title", "color"});
  std::vector<Table> tables;
  {
    Table t("source_a", schema);
    t.AppendRow({"apple iphone 8 plus 64gb", "silver"}).CheckOk();
    t.AppendRow({"samsung galaxy s9 dual sim 64gb", "black"}).CheckOk();
    t.AppendRow({"google pixel 3 xl 128gb", "white"}).CheckOk();
    tables.push_back(std::move(t));
  }
  {
    Table t("source_b", schema);
    t.AppendRow({"apple iphone 8 plus 5.5 64gb 4g unlocked sim free", ""})
        .CheckOk();
    t.AppendRow({"galaxy s9 duos 64 gb by samsung", "midnight black"})
        .CheckOk();
    tables.push_back(std::move(t));
  }
  {
    Table t("source_c", schema);
    t.AppendRow({"apple iphone 8 plus 14 cm 5.5 64 gb 12 mp ios 11", "silver"})
        .CheckOk();
    t.AppendRow({"pixel 3 xl google smartphone 128 gb", "clearly white"})
        .CheckOk();
    tables.push_back(std::move(t));
  }
  {
    Table t("source_d", schema);
    t.AppendRow({"apple iphone 8 plus 5.5 single sim 4g 64gb", "silver"})
        .CheckOk();
    t.AppendRow({"sony wh-1000xm3 wireless headphones", "black"}).CheckOk();
    tables.push_back(std::move(t));
  }

  // Configure, assemble, run. Tiny inputs need no sampling, and
  // cross-platform titles this divergent need a loose distance cap. The
  // builder validates the config and resolves the encoder / ANN index /
  // pruner from the component registries (swap any of them via
  // config.encoder_name/index_name/pruner_name or the With*() overrides).
  MultiEmConfig config;
  config.sample_ratio = 1.0;
  config.m = 0.72f;
  config.eps = 1.2f;  // keep legitimately-divergent listings when pruning
  auto pipeline = PipelineBuilder(config).Build();
  pipeline.status().CheckOk();
  auto result = pipeline->Run(tables);
  result.status().CheckOk();

  std::printf("matched %zu tuples:\n", result->tuples.size());
  for (const auto& tuple : result->tuples) {
    std::printf("  {\n");
    for (auto id : tuple) {
      std::printf("    [%s] %s\n", tables[id.source()].name().c_str(),
                  std::string(tables[id.source()].cell(id.row(), 0)).c_str());
    }
    std::printf("  }\n");
  }
  std::printf("\nphase times: selection %.3fs, representation %.3fs, "
              "merging %.3fs, pruning %.3fs\n",
              result->timings.Get(multiem::core::kPhaseSelection),
              result->timings.Get(multiem::core::kPhaseRepresentation),
              result->timings.Get(multiem::core::kPhaseMerging),
              result->timings.Get(multiem::core::kPhasePruning));
  return 0;
}
