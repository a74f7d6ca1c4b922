/// \file pipeline.h
/// The end-to-end MultiEM pipeline of Figure 3 / Section III of the paper:
/// given S tables with identical schemas, produce the set of matched tuples.
///
/// The three phases map to paper sections as follows:
///   1. Enhanced entity representation (Section III-B): automated attribute
///      selection (Algorithm 1, via core/attribute_selector.h) followed by
///      serialization + sentence embedding (embed/serialize.h,
///      embed/text_encoder.h).
///   2. Table-wise hierarchical merging (Section III-C, Algorithms 2-3, via
///      core/merge_plan.h and core/two_table_merger.h): pairwise merges
///      driven by the mutual top-K relation of Eq. 1 until one integrated
///      table remains.
///   3. Density-based pruning (Section III-D, Definitions 3-5, via
///      core/density_pruner.h): drops outlier entities from candidate
///      tuples.
///
/// The pipeline is assembled from pluggable components — a sentence encoder,
/// an ANN index factory, and a pruner — resolved by name from
/// core/registry.h (MultiEmConfig::{encoder,index,pruner}_name) or injected
/// explicitly through PipelineBuilder. Runs are observable and cancellable
/// via core/run_context.h. See docs/API.md for the full API tour.
///
/// PipelineResult exposes the per-phase wall times (Figure 5's S/R/M/P
/// breakdown) and the counters the Table IV-VII benches report.

#ifndef MULTIEM_CORE_PIPELINE_H_
#define MULTIEM_CORE_PIPELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "ann/index_factory.h"
#include "core/attribute_selector.h"
#include "core/config.h"
#include "core/density_pruner.h"
#include "core/matcher.h"
#include "core/merge_plan.h"
#include "core/pruner.h"
#include "core/run_context.h"
#include "util/io.h"
#include "embed/text_encoder.h"
#include "eval/tuples.h"
#include "table/table.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace multiem::core {

/// Phase names used in PipelineResult::timings; they correspond to the
/// modules of Figure 5: S (attribute selection), R (representation),
/// M (merging), P (pruning).
inline constexpr const char* kPhaseSelection = "selection";
inline constexpr const char* kPhaseRepresentation = "representation";
inline constexpr const char* kPhaseMerging = "merging";
inline constexpr const char* kPhasePruning = "pruning";

/// The input contract of MultiEmPipeline::Run (and of the multi-process
/// distrib::Coordinator): at least 2 tables, each non-empty, unique names,
/// one common schema. InvalidArgument names the first violation.
util::Status ValidateTables(const std::vector<table::Table>& tables);

/// The three pluggable components of a run. A null member means "resolve
/// from the registry by config name" (see ResolveComponents).
struct PipelineComponents {
  std::shared_ptr<embed::TextEncoder> encoder;
  std::shared_ptr<const ann::VectorIndexFactory> index_factory;
  std::shared_ptr<const Pruner> pruner;
};

/// Fills each null member of `components` from its registry by the config's
/// encoder_name / index_name / pruner_name. Members already set (builder
/// injections) are kept and their names are not validated. The HNSW knob
/// coupling (MultiEmConfig::ValidateHnswKnobs) is checked only when the
/// built-in "hybrid" or "hnsw" index is resolved. Every build path calls
/// this — PipelineBuilder::Build, MultiEmPipeline::Run,
/// distrib::RunShardWorker and distrib::Coordinator::Build — so all of them
/// accept the same configs.
util::Status ResolveComponents(const MultiEmConfig& config,
                               PipelineComponents* components);

/// Phase S (Section III-B): fits `encoder` on the full-schema corpus of
/// `tables` (non-empty), then runs Algorithm 1 — or selects every column
/// when config.enable_attribute_selection is off. Deterministic in
/// (tables, config), so separate processes replay it and agree bit for bit.
util::Result<AttributeSelection> SelectAttributes(
    const MultiEmConfig& config, const std::vector<table::Table>& tables,
    embed::TextEncoder* encoder, util::ThreadPool* pool);

/// Phase R: refits `encoder` on the corpus serialized with the selected
/// columns, then embeds the sources listed in `sources`. Every other source
/// gets a 0-row placeholder, so EntityId::source keeps indexing the store
/// globally; with `sources` empty the call only refits the encoder.
EntityEmbeddingStore EmbedSources(const std::vector<table::Table>& tables,
                                  const AttributeSelection& selection,
                                  const std::vector<size_t>& sources,
                                  embed::TextEncoder* encoder,
                                  util::ThreadPool* pool);

/// The serving session of a finished run: hands the run's fitted encoder
/// (after both FitCorpus passes), index factory, base embeddings, and
/// integrated entity table to Matcher::Assemble, which builds one serving
/// index over the final item representations. `tables` supply the schema
/// and source names. MultiEmPipeline::Run and distrib::Coordinator::Build
/// both end with it when asked for a matcher.
util::Result<std::shared_ptr<Matcher>> BuildMatcher(
    const MultiEmConfig& config, const std::vector<table::Table>& tables,
    const AttributeSelection& selection, EntityEmbeddingStore store,
    MergeTable integrated, const PipelineComponents& components,
    util::ThreadPool* pool);

/// Everything MultiEM produces for one run.
struct PipelineResult {
  /// Final matched tuples (each with >= 2 entities).
  std::vector<eval::Tuple> tuples;
  /// Attribute selection outcome (all columns when EER is disabled).
  AttributeSelection selection;
  /// Wall time per phase (Figure 5's S/R/M/P breakdown). On a cancelled run
  /// this holds the completed phases plus the partial duration of the phase
  /// the cancellation interrupted.
  util::PhaseTimings timings;
  /// Merging and pruning counters.
  MergeStats merge_stats;
  PruneStats prune_stats;
  /// Approximate peak bytes of the pipeline-owned data structures
  /// (embeddings + merge tables); used by the Table VI bench.
  size_t approx_peak_bytes = 0;
  /// Wall seconds the run spent on its checkpoint journal
  /// (RunContext::checkpoint_dir; 0 without one): journal appends with
  /// their fsyncs and the checksum of every spill it journaled
  /// (CheckpointLog::seconds).
  double checkpoint_seconds = 0.0;

  /// The run's serving session, populated only when
  /// RunContext::build_matcher was set: the fitted encoder + integrated
  /// entity table + a fresh serving index, ready for Matcher::MatchRecords
  /// or Matcher::Save (the persistent-artifact path). Null otherwise.
  std::shared_ptr<Matcher> matcher;

  /// Canonicalized tuple set for evaluation.
  eval::TupleSet ToTupleSet() const { return eval::TupleSet(tuples); }
};

/// The end-to-end MultiEM pipeline (Figure 3): enhanced entity
/// representation -> table-wise hierarchical merging -> density-based
/// pruning. Serial by default; set config.num_threads != 1 for
/// MultiEM(parallel).
///
/// Construction: `MultiEmPipeline(config)` resolves every component from the
/// registries by name at each Run(). `PipelineBuilder` instead resolves or
/// injects components once at Build(). Both forms are safe for concurrent
/// Run() calls on one pipeline: every run works on a private encoder (fresh
/// from the registry, or a Clone() of the builder-assembled one, since
/// FitCorpus mutates encoder state); the index factory and pruner are const
/// and shared.
///
/// Usage:
///   MultiEmConfig cfg;
///   auto pipeline = PipelineBuilder(cfg).Build();
///   if (!pipeline.ok()) { ... }
///   auto result = pipeline->Run(tables);
///   if (result.ok()) { use result->tuples ... }
class MultiEmPipeline {
 public:
  explicit MultiEmPipeline(MultiEmConfig config = {})
      : config_(std::move(config)) {}

  // Move-only: a builder-assembled pipeline owns its components; moves keep
  // that ownership unambiguous. (Runs themselves never mutate the shared
  // encoder — Run() clones it — so concurrency is not the concern here.)
  MultiEmPipeline(MultiEmPipeline&&) = default;
  MultiEmPipeline& operator=(MultiEmPipeline&&) = default;
  MultiEmPipeline(const MultiEmPipeline&) = delete;
  MultiEmPipeline& operator=(const MultiEmPipeline&) = delete;

  /// Matches `tables` (>= 2 tables, unique names, non-empty, identical
  /// schemas). Deterministic given config.seed and config.num_threads == 1;
  /// parallel runs produce the same tuples (the merge schedule is
  /// seed-driven, not thread-driven).
  util::Result<PipelineResult> Run(
      const std::vector<table::Table>& tables) const;

  /// Run-session form: `ctx.observer` receives phase and progress events;
  /// `ctx.cancel` is polled at phase boundaries, between merge hierarchy
  /// levels, and between pruning batches. On cancellation returns
  /// Status::Cancelled with `result->timings` holding the phases that ran
  /// (`result` is always written; on error its contents are partial).
  util::Status Run(const std::vector<table::Table>& tables,
                   const RunContext& ctx, PipelineResult* result) const;

  /// Restores a serving session from a directory written by Matcher::Save
  /// (equivalently core::PipelineArtifact::Save): the fitted encoder, the
  /// entity table, and the serving index are reloaded — no refit, no
  /// re-match — and the returned Matcher answers MatchRecords identically
  /// to the session that was saved. Corrupt, truncated, or newer-versioned
  /// artifacts fail with a descriptive Status.
  static util::Result<Matcher> LoadArtifact(const std::string& dir);

  /// Same, with explicit util::ArtifactOpenOptions — mmap-backed zero-copy
  /// opening and/or structural-only verification for fast reloads. The
  /// defaults match the 1-arg overload (heap reads, full verification).
  static util::Result<Matcher> LoadArtifact(
      const std::string& dir, const util::ArtifactOpenOptions& options);

  const MultiEmConfig& config() const { return config_; }

 private:
  friend class PipelineBuilder;

  MultiEmConfig config_;
  // Builder-provided components; null members are resolved from the
  // registries by config name at Run().
  PipelineComponents components_;
};

/// Assembles a MultiEmPipeline from a config plus optional explicit
/// component overrides, validating the whole assembly once at Build().
/// Components not overridden are resolved from the registries by the
/// config's names; overridden components make the corresponding name
/// irrelevant (it is not validated).
///
///   auto pipeline = PipelineBuilder(config)
///                       .WithEncoder(std::make_unique<MyOnnxEncoder>())
///                       .Build();
class PipelineBuilder {
 public:
  explicit PipelineBuilder(MultiEmConfig config = {})
      : config_(std::move(config)) {}

  /// Injects the sentence encoder instance (overrides encoder_name).
  PipelineBuilder& WithEncoder(std::unique_ptr<embed::TextEncoder> encoder) {
    components_.encoder = std::move(encoder);
    return *this;
  }

  /// Injects the ANN index factory. It replaces the factory index_name
  /// names, but index_name still decides which merges scan exactly without
  /// any factory (docs/API.md, "Merge index choice"); under the default
  /// "hybrid" the injected factory serves only the merges above the cost
  /// rule and the serving index.
  PipelineBuilder& WithIndexFactory(
      std::unique_ptr<ann::VectorIndexFactory> factory) {
    components_.index_factory = std::move(factory);
    return *this;
  }

  /// Injects the pruning phase (overrides pruner_name).
  PipelineBuilder& WithPruner(std::unique_ptr<Pruner> pruner) {
    components_.pruner = std::move(pruner);
    return *this;
  }

  /// Validates config values, resolves every non-injected component from
  /// its registry (unknown names fail here, listing the registered ones),
  /// and returns the assembled pipeline. The builder is left empty; call
  /// sites build once and run many times.
  util::Result<MultiEmPipeline> Build();

 private:
  MultiEmConfig config_;
  PipelineComponents components_;
};

}  // namespace multiem::core

#endif  // MULTIEM_CORE_PIPELINE_H_
