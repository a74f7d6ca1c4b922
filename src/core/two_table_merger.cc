#include "core/two_table_merger.h"

#include <algorithm>

#include "ann/mutual_topk.h"
#include "ann/quant.h"
#include "cluster/union_find.h"
#include "core/registry.h"

namespace multiem::core {

ann::MutualTopKOptions MutualOptionsFromConfig(const MultiEmConfig& config) {
  ann::MutualTopKOptions options;
  options.k = config.k;
  options.max_distance = config.m;
  options.metric = ann::Metric::kCosine;
  // The exact scan is fp32 only: a quantized config keeps the index route.
  ann::Quantization quantization;
  if (!ann::ParseQuantization(config.quantization, &quantization) ||
      quantization != ann::Quantization::kNone) {
    return options;
  }
  if (config.index_name == kBruteForceIndexName) {
    options.exact_scan_budget = ann::kAlwaysScan;
  } else if (config.index_name == kHybridIndexName) {
    options.exact_scan_budget =
        kHybridScanFactor *
        static_cast<double>(config.hnsw_ef_construction) *
        static_cast<double>(config.hnsw_m);
  }
  return options;
}

void WriteNodeStats(util::ByteWriter& out, const MergeNodeStats& stats) {
  out.WriteU64(stats.node);
  out.WriteU64(stats.mutual_pairs);
  out.WriteU64(stats.merged_items);
  out.WriteU64(stats.carried_items);
  out.WriteU64(stats.attempts);
}

util::Status ReadNodeStats(util::ByteReader& in, bool has_attempts,
                           MergeNodeStats* out) {
  uint64_t fields[5] = {0, 0, 0, 0, 1};
  for (size_t f = 0; f < (has_attempts ? 5u : 4u); ++f) {
    MULTIEM_RETURN_IF_ERROR(in.ReadU64(&fields[f]));
  }
  *out = MergeNodeStats{static_cast<size_t>(fields[0]),
                        static_cast<size_t>(fields[1]),
                        static_cast<size_t>(fields[2]),
                        static_cast<size_t>(fields[3]),
                        static_cast<size_t>(fields[4])};
  return util::Status::Ok();
}

MergeTable TwoTableMerger::Merge(const MergeTable& a, const MergeTable& b,
                                 util::ThreadPool* pool,
                                 MergeNodeStats* stats) const {
  // Step 1 (Algorithm 3 lines 3-5): mutual top-K pairs under the cap m.
  // The tables hold member lists only, so each side's item vectors are
  // derived from the store into one contiguous matrix, which lives for
  // this call alone.
  std::vector<ann::MutualPair> matches = ann::MutualTopK(
      a.GatherVectors(*store_), b.GatherVectors(*store_), *index_factory_,
      MutualOptionsFromConfig(config_), pool);

  // Step 2 (lines 6-10): union by transitivity. Items of `a` take union-find
  // ids [0, a.num_items()); items of `b` take [a.num_items(), ...). The
  // within-item matched sets (MatchedPairs(E_i)) are already encoded by the
  // items' member lists, so only cross-table unions are needed here.
  cluster::UnionFind uf(a.num_items() + b.num_items());
  for (const ann::MutualPair& match : matches) {
    uf.Union(match.left, a.num_items() + match.right);
  }
  if (stats != nullptr) stats->mutual_pairs = matches.size();

  auto members_at =
      [&](size_t uf_id) -> const std::vector<table::EntityId>& {
    return uf_id < a.num_items() ? a.members(uf_id)
                                 : b.members(uf_id - a.num_items());
  };

  MergeTable merged;
  for (const std::vector<size_t>& group : uf.Groups()) {
    std::vector<table::EntityId> members;
    for (size_t uf_id : group) {
      const std::vector<table::EntityId>& source = members_at(uf_id);
      members.insert(members.end(), source.begin(), source.end());
    }
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
    if (stats != nullptr) {
      ++(group.size() == 1 ? stats->carried_items : stats->merged_items);
    }
    merged.Append(std::move(members));
  }
  return merged;
}

}  // namespace multiem::core
