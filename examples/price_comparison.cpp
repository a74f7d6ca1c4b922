// Price-comparison scenario from the paper's introduction: a shopping
// aggregator (Pricerunner/Skroutz-style) must recognize the same product
// across many e-commerce platforms so it can show one price list per
// product.
//
//   $ ./examples/price_comparison
//
// Generates a 20-source Shopee-style catalog with synthetic prices, runs
// MultiEM, and prints the "best deal" board: for each matched product
// group, every platform's price and the cheapest offer.

#include <cstdio>
#include <string>

#include "core/pipeline.h"
#include "datagen/shopee.h"
#include "eval/metrics.h"
#include "util/rng.h"

using namespace multiem;

int main() {
  // A catalog of confusable product titles across 20 platforms.
  datagen::ShopeeConfig data_config;
  data_config.num_families = 120;
  data_config.presence_prob = 0.25;
  data_config.seed = 7;
  datagen::MultiSourceBenchmark catalog = datagen::GenerateShopee(data_config);

  // Synthetic per-listing prices: same product, different platform prices.
  util::Rng rng(99);
  std::vector<std::vector<double>> prices(catalog.tables.size());
  for (size_t s = 0; s < catalog.tables.size(); ++s) {
    prices[s].resize(catalog.tables[s].num_rows());
    for (double& p : prices[s]) p = 10.0 + rng.UniformDouble() * 90.0;
  }

  core::MultiEmConfig config;
  config.m = 0.35f;
  config.sample_ratio = 1.0;
  auto pipeline = core::PipelineBuilder(config).Build();
  pipeline.status().CheckOk();
  auto result = pipeline->Run(catalog.tables);
  result.status().CheckOk();

  eval::Prf prf =
      eval::EvaluatePairs(result->ToTupleSet(), catalog.truth);
  std::printf("matched %zu product groups across %zu platforms "
              "(pair-P %.1f%%, pair-R %.1f%%)\n\n",
              result->tuples.size(), catalog.tables.size(),
              prf.precision * 100, prf.recall * 100);

  // Best-deal board for the first few groups.
  size_t shown = 0;
  for (const auto& tuple : result->tuples) {
    if (tuple.size() < 3 || shown >= 5) continue;
    ++shown;
    double best_price = 1e9;
    std::string best_platform;
    std::printf("product group #%zu\n", shown);
    for (auto id : tuple) {
      double price = prices[id.source()][id.row()];
      std::printf("  platform %-2u  $%6.2f  %s\n", id.source(), price,
                  std::string(catalog.tables[id.source()].cell(id.row(), 0))
                      .c_str());
      if (price < best_price) {
        best_price = price;
        best_platform = "platform " + std::to_string(id.source());
      }
    }
    std::printf("  -> best deal: $%.2f on %s\n\n", best_price,
                best_platform.c_str());
  }
  return 0;
}
