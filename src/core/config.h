/// \file config.h
/// Every knob of the MultiEM pipeline in one struct, grouped by the paper
/// section that introduces it: enhanced entity representation
/// (Section III-B: embedding_dim, max_tokens, sample_ratio r, gamma),
/// hierarchical merging (Section III-C: k and m of Eq. 1, HNSW parameters),
/// density-based pruning (Section III-D: eps, min_pts), and parallelism
/// (Section III-E: num_threads). Defaults follow the Section IV-A
/// experimental setup; the commented grids are the published search ranges
/// swept by bench/bench_fig6_sensitivity.cpp.

#ifndef MULTIEM_CORE_CONFIG_H_
#define MULTIEM_CORE_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace multiem::core {

/// All knobs of the MultiEM pipeline. Defaults follow Section IV-A of the
/// paper (k=1, MinPts=2, r=0.2, max sequence length 64; m, eps, gamma from
/// the middle of the published grids).
struct MultiEmConfig {
  // --- Enhanced entity representation (Section III-B) ---
  /// Embedding dimensionality (384 = all-MiniLM-L12-v2).
  size_t embedding_dim = 384;
  /// Maximum tokens per serialized entity.
  size_t max_tokens = 64;
  /// Enables automated attribute selection (the EER module). Disabling this
  /// reproduces the "MultiEM w/o EER" ablation row of Table IV.
  bool enable_attribute_selection = true;
  /// Row-sampling ratio r for attribute selection (paper: 0.2 normally,
  /// 0.05 for the 5M-entity Person dataset).
  double sample_ratio = 0.2;
  /// Attribute-significance threshold gamma, grid {0.8, 0.9}. An attribute
  /// is selected when the mean cosine similarity between original and
  /// column-shuffled embeddings is <= gamma (large displacement = the
  /// attribute matters; see Example 1 of the paper).
  double gamma = 0.9;

  // --- Table-wise hierarchical merging (Section III-C) ---
  /// Mutual top-K depth (paper default 1).
  size_t k = 1;
  /// Distance threshold m on cosine distance, grid {0.05, 0.2, 0.35, 0.5}.
  float m = 0.35f;
  /// HNSW construction/search knobs. The defaults are tuned for the mutual
  /// top-1 queries of the merging phase (k=1 with a distance cap needs far
  /// less beam width than a recall@100 workload). Under "hybrid",
  /// hnsw_ef_construction * hnsw_m also prices an index build in the
  /// per-merge choice (see index_name).
  size_t hnsw_m = 16;
  size_t hnsw_ef_construction = 100;
  size_t hnsw_ef_search = 48;
  /// Vector storage for the merging-phase candidate scans: "none" (fp32,
  /// the default), "int8", or "fp16" (ann::Quantization). Quantized indexes
  /// keep the fp32 originals for graph construction and re-score the top
  /// `rerank_factor * k` candidates exactly, so recall stays >= 0.95 at a
  /// fraction of the hot bytes; see docs/API.md, "Quantized vectors".
  /// Applies to every built-in index; a quantized config never takes the
  /// exact fp32 scan.
  std::string quantization = "none";
  /// Exact-rerank pool multiplier for quantized searches (ignored when
  /// quantization is "none").
  size_t rerank_factor = 4;

  // --- Density-based pruning (Section III-D) ---
  /// Enables outlier pruning. Disabling reproduces "MultiEM w/o DP".
  bool enable_pruning = true;
  /// Neighborhood radius eps (Euclidean on unit-norm embeddings),
  /// grid {0.8, 1.0}.
  float eps = 1.0f;
  /// MinPts, neighborhood size (self included) for a core entity.
  size_t min_pts = 2;

  // --- Parallelism (Section III-E) & determinism ---
  /// 1 = serial MultiEM; >1 = MultiEM(parallel) with this many workers;
  /// 0 = hardware concurrency.
  size_t num_threads = 1;
  /// Seed for the random merge order of Algorithm 2 (Figure 6(b) sweeps it)
  /// and for every other randomized component.
  uint64_t seed = 0;

  // --- Component selection (core/registry.h) ---
  /// Sentence encoder, resolved through core::TextEncoders(). The default
  /// "hashing" is the deterministic MiniLM stand-in.
  std::string encoder_name = "hashing";
  /// ANN index for the merging phase and the serving session, resolved
  /// through core::IndexFactories(). Built-ins:
  ///  - "hybrid" (default): a merge of n_l x n_r items is scanned exactly
  ///    (ann::ExactMutualTopK) when n_l * n_r <= kHybridScanFactor *
  ///    (n_l + n_r) * hnsw_ef_construction * hnsw_m, and matched through two
  ///    HNSW indexes otherwise; the serving index is HNSW. Quantized configs
  ///    build HNSW for every merge.
  ///  - "hnsw": two HNSW indexes per merge, and an HNSW serving index.
  ///  - "brute_force": exact. fp32 scans every merge; with quantization
  ///    each merge builds two quantized BruteForceIndexes.
  /// The choice depends only on this config and the two row counts, so every
  /// build path and Matcher::AddTable choose alike (docs/API.md, "Merge
  /// index choice").
  std::string index_name = "hybrid";
  /// Pruning-phase implementation, resolved through core::Pruners(). The
  /// default "density" is the paper's Algorithm 4.
  std::string pruner_name = "density";

  /// Verifies parameter ranges and that the three component names are
  /// registered; returns InvalidArgument on nonsense values (unknown names
  /// list the registered alternatives in the message).
  util::Status Validate() const;

  /// Verifies parameter ranges only, skipping the registry name checks and
  /// the HNSW knob coupling — what the pipeline uses when builder-injected
  /// components make the names (and the HNSW knobs) irrelevant.
  util::Status ValidateValues() const;

  /// Verifies the HNSW construction/search knobs (hnsw_m >= 2,
  /// hnsw_ef_construction >= 1, hnsw_ef_search >= k). Only applied when the
  /// built-in "hybrid" or "hnsw" index is actually selected — a brute-force
  /// or custom index assembly must not be rejected over unused HNSW knobs.
  util::Status ValidateHnswKnobs() const;
};

}  // namespace multiem::core

#endif  // MULTIEM_CORE_CONFIG_H_
