#include "core/pipeline.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <unordered_set>
#include <utility>

#include "core/artifact.h"
#include "core/checkpoint.h"
#include "core/merge_plan.h"
#include "core/merge_source.h"
#include "core/registry.h"
#include "core/two_table_merger.h"
#include "embed/serialize.h"
#include "util/fault.h"
#include "util/io.h"
#include "util/logging.h"

namespace multiem::core {

util::Status ValidateTables(const std::vector<table::Table>& tables) {
  if (tables.size() < 2) {
    return util::Status::InvalidArgument(
        "multi-table EM needs at least 2 tables, got " +
        std::to_string(tables.size()));
  }
  std::unordered_set<std::string> names;
  for (const table::Table& t : tables) {
    if (t.num_rows() == 0) {
      return util::Status::InvalidArgument(
          "table '" + t.name() +
          "' is empty: every input table needs at least one row");
    }
    if (!names.insert(t.name()).second) {
      return util::Status::InvalidArgument(
          "duplicate table name '" + t.name() +
          "': table names identify sources and must be unique");
    }
    if (t.schema() != tables[0].schema()) {
      return util::Status::InvalidArgument(
          "table '" + t.name() + "' does not share the common schema");
    }
  }
  return util::Status::Ok();
}

util::Status ResolveComponents(const MultiEmConfig& config,
                               PipelineComponents* components) {
  if (components->encoder == nullptr) {
    auto created = TextEncoders().Create(config.encoder_name, config);
    if (!created.ok()) return created.status();
    components->encoder = std::move(*created);
  }
  if (components->index_factory == nullptr) {
    if (BuildsHnsw(config.index_name)) {
      MULTIEM_RETURN_IF_ERROR(config.ValidateHnswKnobs());
    }
    auto created = IndexFactories().Create(config.index_name, config);
    if (!created.ok()) return created.status();
    components->index_factory = std::move(*created);
  }
  if (components->pruner == nullptr) {
    auto created = Pruners().Create(config.pruner_name, config);
    if (!created.ok()) return created.status();
    components->pruner = std::move(*created);
  }
  return util::Status::Ok();
}

util::Result<AttributeSelection> SelectAttributes(
    const MultiEmConfig& config, const std::vector<table::Table>& tables,
    embed::TextEncoder* encoder, util::ThreadPool* pool) {
  // Fit corpus-dependent state (SIF frequencies for the hashing encoder) on
  // the full-schema corpus; its only consumer is the attribute selector.
  {
    std::vector<std::string> corpus;
    for (const table::Table& t : tables) {
      std::vector<std::string> texts = embed::SerializeTable(t);
      corpus.insert(corpus.end(), std::make_move_iterator(texts.begin()),
                    std::make_move_iterator(texts.end()));
    }
    encoder->FitCorpus(corpus);
  }
  if (config.enable_attribute_selection) {
    return AttributeSelector(encoder, config).Run(tables, pool);
  }
  AttributeSelection all;
  for (size_t c = 0; c < tables[0].num_columns(); ++c) {
    all.selected_columns.push_back(c);
    all.selected_names.push_back(tables[0].schema().name(c));
  }
  all.shuffle_similarity.assign(tables[0].num_columns(), 0.0);
  return all;
}

EntityEmbeddingStore EmbedSources(const std::vector<table::Table>& tables,
                                  const AttributeSelection& selection,
                                  const std::vector<size_t>& sources,
                                  embed::TextEncoder* encoder,
                                  util::ThreadPool* pool) {
  // Refit on the selected-column corpus so corpus-dependent weighting (e.g.
  // SIF) matches what is actually encoded.
  std::vector<bool> listed(tables.size(), false);
  for (size_t s : sources) listed[s] = true;
  std::vector<std::vector<std::string>> texts(tables.size());
  std::vector<std::string> corpus;
  for (size_t s = 0; s < tables.size(); ++s) {
    std::vector<std::string> serialized =
        embed::SerializeTable(tables[s], selection.selected_columns);
    corpus.insert(corpus.end(), serialized.begin(), serialized.end());
    if (listed[s]) texts[s] = std::move(serialized);
  }
  encoder->FitCorpus(corpus);
  EntityEmbeddingStore store;
  for (size_t s = 0; s < tables.size(); ++s) {
    store.AddSource(listed[s] ? encoder->EncodeBatch(texts[s], pool)
                              : embed::EmbeddingMatrix(0, encoder->dim()));
  }
  return store;
}

util::Result<std::shared_ptr<Matcher>> BuildMatcher(
    const MultiEmConfig& config, const std::vector<table::Table>& tables,
    const AttributeSelection& selection, EntityEmbeddingStore store,
    MergeTable integrated, const PipelineComponents& components,
    util::ThreadPool* pool) {
  std::vector<std::string> source_names;
  source_names.reserve(tables.size());
  for (const table::Table& t : tables) source_names.push_back(t.name());
  auto matcher = Matcher::Assemble(
      config, tables[0].schema().names(), selection, std::move(source_names),
      std::move(store), std::move(integrated), components.encoder,
      components.index_factory, /*index=*/nullptr, pool);
  if (!matcher.ok()) return matcher.status();
  return std::make_shared<Matcher>(std::move(*matcher));
}

namespace {

/// RAII phase bracket: accumulates the duration into the result's timings
/// and emits OnPhaseStart/OnPhaseEnd. On early return (cancellation) the
/// destructor still records the partial duration and closes the bracket.
class ScopedPhase {
 public:
  ScopedPhase(PipelineResult* result, const RunContext& ctx, const char* name)
      : result_(result), ctx_(ctx), name_(name) {
    if (ctx_.observer != nullptr) ctx_.observer->OnPhaseStart(name_);
  }
  ~ScopedPhase() {
    double seconds = timer_.ElapsedSeconds();
    result_->timings.Add(name_, seconds);
    if (ctx_.observer != nullptr) ctx_.observer->OnPhaseEnd(name_, seconds);
  }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  PipelineResult* result_;
  const RunContext& ctx_;
  const char* name_;
  util::WallTimer timer_;
};

util::Status CancelledAfter(const char* phase) {
  return util::Status::Cancelled(
      std::string("pipeline run cancelled during the ") + phase + " phase");
}

}  // namespace

util::Result<PipelineResult> MultiEmPipeline::Run(
    const std::vector<table::Table>& tables) const {
  PipelineResult result;
  util::Status status = Run(tables, RunContext{}, &result);
  if (!status.ok()) return status;
  return result;
}

util::Status MultiEmPipeline::Run(const std::vector<table::Table>& tables,
                                  const RunContext& ctx,
                                  PipelineResult* result) const {
  if (result == nullptr) {
    return util::Status::InvalidArgument("result must be non-null");
  }
  *result = PipelineResult{};
  MULTIEM_RETURN_IF_ERROR(config_.ValidateValues());
  MULTIEM_RETURN_IF_ERROR(ValidateTables(tables));
  if (!ctx.arm_faults.empty()) {
    MULTIEM_RETURN_IF_ERROR(
        util::FaultInjector::Global().ArmFromString(ctx.arm_faults));
  }

  // Crash-safe progress log (see core/checkpoint.h): replay what earlier
  // attempts of this exact (config, inputs) run durably finished.
  std::unique_ptr<CheckpointLog> checkpoint;
  if (!ctx.checkpoint_dir.empty()) {
    auto opened = CheckpointLog::Open(ctx.checkpoint_dir,
                                      ComputeRunFingerprint(config_, tables));
    if (!opened.ok()) return opened.status();
    checkpoint = std::move(*opened);
  }
  // The selection is the one phase output cheap to journal whole, so a
  // resume restores it instead of re-running Algorithm 1. A payload that
  // does not decode is recomputed.
  AttributeSelection restored_selection;
  bool have_restored_selection = false;
  if (checkpoint != nullptr) {
    if (const std::string* payload =
            checkpoint->PhasePayload(kPhaseSelection)) {
      util::ByteReader reader(std::span<const uint8_t>(
          reinterpret_cast<const uint8_t*>(payload->data()), payload->size()));
      have_restored_selection =
          ReadSelection(reader, &restored_selection).ok();
    }
  }

  // Assemble the components: builder-injected instances win; otherwise
  // resolve from the registries by config name. Either way this run gets a
  // private encoder — registry resolution creates a fresh one, and a
  // builder-injected (shared across runs) encoder is cloned, because the
  // phases below refit it and Run() is documented safe for concurrent
  // calls. The index factory and pruner are const-shared as-is.
  PipelineComponents components = components_;
  if (components.encoder != nullptr) {
    components.encoder = components.encoder->Clone();
  }
  MULTIEM_RETURN_IF_ERROR(ResolveComponents(config_, &components));

  std::unique_ptr<util::ThreadPool> pool;
  if (config_.num_threads != 1) {
    pool = std::make_unique<util::ThreadPool>(config_.num_threads);
  }

  // Phase S: full-schema encoder fit + automated attribute selection
  // (Algorithm 1). A restored selection skips both: the fit's only consumer
  // is the selector, and phase R refits regardless.
  {
    ScopedPhase phase(result, ctx, kPhaseSelection);
    if (have_restored_selection) {
      result->selection = std::move(restored_selection);
    } else {
      auto selection = SelectAttributes(config_, tables,
                                        components.encoder.get(), pool.get());
      if (!selection.ok()) return selection.status();
      result->selection = std::move(*selection);
      // Marker only (resume never reads it): the full-schema fit ran.
      if (checkpoint != nullptr && !checkpoint->HasPhase("encoder_fit")) {
        MULTIEM_FAULT_POINT("pipeline.phase.commit");
        MULTIEM_RETURN_IF_ERROR(checkpoint->RecordPhase("encoder_fit"));
      }
    }
    if (checkpoint != nullptr && !checkpoint->HasPhase(kPhaseSelection)) {
      util::ByteWriter payload;
      WriteSelection(payload, result->selection);
      MULTIEM_FAULT_POINT("pipeline.phase.commit");
      MULTIEM_RETURN_IF_ERROR(checkpoint->RecordPhase(
          kPhaseSelection,
          std::string(payload.bytes().begin(), payload.bytes().end())));
    }
  }
  if (ctx.cancelled()) return CancelledAfter(kPhaseSelection);

  // Phase R: serialize with the selected attributes and embed every entity.
  EntityEmbeddingStore store;
  {
    ScopedPhase phase(result, ctx, kPhaseRepresentation);
    std::vector<size_t> all_sources(tables.size());
    std::iota(all_sources.begin(), all_sources.end(), size_t{0});
    store = EmbedSources(tables, result->selection, all_sources,
                         components.encoder.get(), pool.get());
    // Embeddings are recomputed on resume (they are deterministic and the
    // store must be resident for merging anyway); the marker records that
    // the phase completed at least once, for observability and tests.
    if (checkpoint != nullptr && !checkpoint->HasPhase(kPhaseRepresentation)) {
      MULTIEM_FAULT_POINT("pipeline.phase.commit");
      MULTIEM_RETURN_IF_ERROR(checkpoint->RecordPhase(kPhaseRepresentation));
    }
  }
  if (ctx.cancelled()) return CancelledAfter(kPhaseRepresentation);

  // Phase M: table-wise hierarchical merging (Algorithm 2).
  MergeTable integrated;
  {
    ScopedPhase phase(result, ctx, kPhaseMerging);
    std::vector<MergeSource> slots;
    slots.reserve(tables.size());
    size_t initial_bytes = store.SizeBytes();
    for (size_t s = 0; s < tables.size(); ++s) {
      MergeTable table =
          MergeTable::FromSource(store, static_cast<uint32_t>(s));
      initial_bytes += table.SizeBytes();
      slots.push_back(MergeSource::FromTable(std::move(table)));
    }
    result->approx_peak_bytes =
        std::max(result->approx_peak_bytes, 2 * initial_bytes);
    // A spill dir selects bounded-memory merging; checkpointing implies it,
    // since resumable progress needs durable per-node outputs. Either way
    // the schedule and the integrated table are the same.
    const bool spilled = !ctx.merge_spill_dir.empty() || checkpoint != nullptr;
    const MergeExecOptions options =
        spilled ? MergeExecOptions::Spilled(
                      !ctx.merge_spill_dir.empty()
                          ? ctx.merge_spill_dir
                          : ctx.checkpoint_dir + "/spill",
                      checkpoint.get())
                : MergeExecOptions{};
    const MergePlan plan = MergePlan::Build(tables.size(), config_.seed);
    const TwoTableMerger merger(config_, &store, *components.index_factory);
    util::Status merged = ExecuteMergePlan(plan, slots, merger, options,
                                           pool.get(), &result->merge_stats,
                                           ctx);
    if (!merged.ok()) {
      return ctx.cancelled() ? CancelledAfter(kPhaseMerging) : merged;
    }
    MergeSource& root = slots[plan.root()];
    auto table = root.Acquire(store);
    if (!table.ok()) return table.status();
    integrated = std::move(*table);
    // Under checkpointing the root's spill is the resume point for
    // everything after this phase (pruning, matcher assembly, artifact
    // save) — keep it; its journal entry stays valid across restarts.
    if (checkpoint == nullptr) root.RemoveBackingFile();
  }
  // Nothing after merging journals.
  if (checkpoint != nullptr) result->checkpoint_seconds = checkpoint->seconds();
  if (ctx.cancelled()) return CancelledAfter(kPhaseMerging);

  // Phase P: pruning (Algorithm 4 under the default density pruner).
  {
    ScopedPhase phase(result, ctx, kPhasePruning);
    PruneContext prune_ctx;
    prune_ctx.store = &store;
    prune_ctx.pool = pool.get();
    prune_ctx.run = ctx;
    result->tuples =
        components.pruner->Prune(integrated, prune_ctx, &result->prune_stats);
  }
  if (ctx.cancelled()) return CancelledAfter(kPhasePruning);

  // Optional serving session. The locals are dead after this point, so
  // everything moves.
  if (ctx.build_matcher) {
    auto matcher =
        BuildMatcher(config_, tables, result->selection, std::move(store),
                     std::move(integrated), components, pool.get());
    if (!matcher.ok()) return matcher.status();
    result->matcher = std::move(*matcher);
  }

  MULTIEM_LOG(kDebug) << "MultiEM finished: " << result->tuples.size()
                      << " tuples, "
                      << result->prune_stats.outliers_removed
                      << " outliers removed";
  return util::Status::Ok();
}

util::Result<Matcher> MultiEmPipeline::LoadArtifact(const std::string& dir) {
  return PipelineArtifact::Load(dir);
}

util::Result<Matcher> MultiEmPipeline::LoadArtifact(
    const std::string& dir, const util::ArtifactOpenOptions& options) {
  return PipelineArtifact::Load(dir, options);
}

util::Result<MultiEmPipeline> PipelineBuilder::Build() {
  MULTIEM_RETURN_IF_ERROR(config_.ValidateValues());
  MultiEmPipeline pipeline(config_);
  pipeline.components_ = std::move(components_);
  MULTIEM_RETURN_IF_ERROR(ResolveComponents(config_, &pipeline.components_));
  return pipeline;
}

}  // namespace multiem::core
