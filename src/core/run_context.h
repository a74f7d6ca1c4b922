/// \file run_context.h
/// Run-session plumbing for the pipeline: a PipelineObserver receiving
/// phase and progress events, and a cooperative CancellationToken checked
/// between merge levels and pruning batches. A RunContext bundles both and
/// is passed to MultiEmPipeline::Run (see docs/API.md for the event order
/// and cancellation semantics).

#ifndef MULTIEM_CORE_RUN_CONTEXT_H_
#define MULTIEM_CORE_RUN_CONTEXT_H_

#include <atomic>
#include <cstddef>
#include <string>
#include <string_view>

namespace multiem::core {

/// Cooperative cancellation flag. Cancel() may be called from any thread
/// (e.g. a deadline watchdog or a serving layer's disconnect handler); the
/// pipeline polls it at phase boundaries, between merge hierarchy levels,
/// and between pruning batches, then stops early and returns
/// Status::Cancelled with the timings of the phases that did run.
class CancellationToken {
 public:
  CancellationToken() = default;
  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  /// Requests cancellation. Idempotent; safe from any thread.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// True once Cancel() has been called.
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Counters of one hierarchy level of the merging phase (Algorithm 2):
/// what OnMergeLevel reports as a level completes, and one entry of
/// MergeStats::levels.
struct MergeLevelProgress {
  size_t level = 0;             ///< 0-based hierarchy level
  size_t tables_in = 0;         ///< merge tables entering the level
  size_t tables_out = 0;        ///< merge tables remaining after the level
  size_t pairs_merged = 0;      ///< table pairs processed at the level
  size_t mutual_pairs = 0;      ///< sum of |P_m| across the level's merges
  /// Sum of MergeNodeStats::attempts at this level; equals pairs_merged for
  /// a first-try run, and exceeds it when distributed workers were retried.
  size_t total_attempts = 0;
};

/// Receives progress events from a pipeline run. All callbacks fire on the
/// thread that called MultiEmPipeline::Run (never from pool workers), in a
/// fixed order: OnPhaseStart/OnPhaseEnd bracket each of the four phases
/// (selection, representation, merging, pruning, in that order);
/// OnMergeLevel fires once per completed hierarchy level inside the merging
/// phase; OnPruneProgress fires after each pruning batch. On cancellation
/// the current phase still emits OnPhaseEnd (with the partial duration)
/// before Run returns. Default implementations ignore every event, so
/// observers override only what they need.
class PipelineObserver {
 public:
  virtual ~PipelineObserver() = default;

  /// A phase (kPhaseSelection .. kPhasePruning) is about to run.
  virtual void OnPhaseStart(std::string_view phase) { (void)phase; }

  /// A phase finished (or was cancelled partway) after `seconds`.
  virtual void OnPhaseEnd(std::string_view phase, double seconds) {
    (void)phase;
    (void)seconds;
  }

  /// One hierarchy level of the merging phase completed.
  virtual void OnMergeLevel(const MergeLevelProgress& progress) {
    (void)progress;
  }

  /// `items_done` of `items_total` candidate tuples have been pruned.
  virtual void OnPruneProgress(size_t items_done, size_t items_total) {
    (void)items_done;
    (void)items_total;
  }
};

/// Everything a run session carries besides its inputs: an optional observer
/// and an optional cancellation token (both non-owning; either may be null).
/// The default-constructed RunContext observes nothing and never cancels,
/// which is exactly the legacy blocking Run() behavior.
struct RunContext {
  PipelineObserver* observer = nullptr;
  const CancellationToken* cancel = nullptr;

  /// When true, Run() additionally assembles PipelineResult::matcher — a
  /// ready-to-query serving session over the run's fitted encoder and
  /// integrated entity table (see core/matcher.h) that can be saved as a
  /// persistent artifact (core/artifact.h). Costs one extra ANN index build
  /// over the final entity table, so it is opt-in.
  bool build_matcher = false;

  /// When non-empty, the merging phase runs disk-backed
  /// (MergeExecOptions::Spilled) with this spill directory: merge tables are
  /// kept as MEMMERGT files and only the pair being merged is resident,
  /// capping the phase's memory regardless of corpus size. Results are bitwise
  /// identical to the in-memory merge; see docs/API.md "Spilled merging &
  /// memory budget".
  std::string merge_spill_dir;

  /// When non-empty, the run is crash-resumable: a MEMJRNL journal under
  /// this directory records completed phases and merge-plan nodes, and a
  /// rerun with the same inputs + config skips everything whose journaled
  /// outputs still validate (orphaned temp files are swept on open).
  /// Implies disk-backed merging — when merge_spill_dir is empty, spills go
  /// to "<checkpoint_dir>/spill". Resumed runs produce bitwise-identical
  /// tuples and artifacts to uninterrupted ones. See docs/API.md "Crash
  /// safety & resume".
  std::string checkpoint_dir;

  /// Fault points to arm before the run starts, in the MULTIEM_FAULT
  /// format: "site:action[:hit[:delay_ms]]", comma-separated, with action
  /// one of fail|crash|delay (util/fault.h). Empty arms nothing. The specs
  /// are armed on the process-global injector — the run-scoped convenience
  /// for crash harnesses and fault drills.
  std::string arm_faults;

  /// True iff a token is attached and has fired.
  bool cancelled() const { return cancel != nullptr && cancel->cancelled(); }
};

}  // namespace multiem::core

#endif  // MULTIEM_CORE_RUN_CONTEXT_H_
