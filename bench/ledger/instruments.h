/// \file instruments.h
/// The ledger's only view into the library's layers, built from public API:
///
///  * a span recorder with per-thread buffers, written once at exit as
///    Chrome trace-event JSON;
///  * decorators over the registry's "hashing" encoder, "hnsw" index factory
///    and "density" pruner, injected through PipelineBuilder. They forward
///    every virtual (Clone, kind and Save included), so sessions they build
///    save and reload as the plain components;
///  * a PipelineObserver that turns phase and merge-level events into spans.
///
/// Nothing here runs in a timed rep: the decorators and the observer are only
/// attached to the separate traced rep.

#ifndef MULTIEM_BENCH_LEDGER_INSTRUMENTS_H_
#define MULTIEM_BENCH_LEDGER_INSTRUMENTS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ann/index.h"
#include "ann/index_factory.h"
#include "core/pruner.h"
#include "core/run_context.h"
#include "embed/text_encoder.h"
#include "util/status.h"

namespace multiem::ledger {

/// Monotonic nanoseconds (steady_clock); every span and latency uses it.
int64_t NowNs();

/// The pipeline phase the run thread is in, as seen by the encoder
/// decorator, so encoder time can be split by phase. kNone covers work
/// outside a pipeline run (serving, artifact reloads).
enum Phase : int { kNone = 0, kSelection, kRepresentation, kMerging, kPruning,
                   kNumPhases };

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t thread = 0;
  /// Counters measured where the work happened (rows, search calls, ...).
  std::vector<std::pair<std::string, double>> args;
};

/// Encoder calls of one thread, per phase.
struct EncodeCounters {
  uint64_t calls = 0;
  uint64_t busy_ns = 0;
  uint64_t bytes = 0;
};

/// Process-wide span and counter sink. Each thread appends to its own
/// buffer; Collect() merges them and must only run once the threads that
/// recorded are joined or idle (the pipeline joins its pool before Run
/// returns; the ledger joins its reader threads).
class Tracer {
 public:
  static Tracer& Get();

  void Record(Span span);
  void CountEncode(int64_t busy_ns, size_t bytes);

  void SetPhase(Phase phase) { phase_.store(phase, std::memory_order_relaxed); }

  std::vector<Span> Collect() const;
  std::array<EncodeCounters, kNumPhases> EncodeTotals() const;

  /// Writes every span as a Chrome trace-event JSON object ("X" events, ts
  /// and dur in microseconds). args carry the span id, its parent's id (the
  /// smallest enclosing span of a higher layer; -1 for roots) and `rep`.
  util::Status WriteChromeTrace(const std::string& path, int rep) const;

 private:
  struct Buffer {
    uint32_t thread = 0;
    std::vector<Span> spans;
    std::array<EncodeCounters, kNumPhases> encode{};
  };
  Buffer& Local();

  std::atomic<int> phase_{kNone};
  mutable std::mutex mu_;  // guards buffers_ (the list, not the contents)
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Index decorator: one "ann.build" span per AddBatch, and one "ann.search"
/// envelope per index (first to last search) carrying the call count, busy
/// time, distance evaluations and visited nodes of all its searches. Search
/// is forwarded as SearchWithStats(q, k, 0, &stats), the same code path.
class TracedIndex final : public ann::VectorIndex {
 public:
  explicit TracedIndex(std::unique_ptr<ann::VectorIndex> inner)
      : inner_(std::move(inner)) {}
  ~TracedIndex() override;

  TracedIndex(const TracedIndex&) = delete;
  TracedIndex& operator=(const TracedIndex&) = delete;

  void Add(std::span<const float> vec) override { inner_->Add(vec); }
  void AddBatch(const embed::EmbeddingMatrix& vectors,
                util::ThreadPool* pool) override;
  std::vector<ann::Neighbor> Search(std::span<const float> query,
                                    size_t k) const override {
    return SearchWithStats(query, k, 0, nullptr);
  }
  std::vector<ann::Neighbor> SearchWithStats(
      std::span<const float> query, size_t k, size_t ef,
      ann::SearchStats* stats) const override;
  std::unique_ptr<ann::VectorIndex> Clone() const override;
  size_t size() const override { return inner_->size(); }
  size_t dim() const override { return inner_->dim(); }
  size_t SizeBytes() const override { return inner_->SizeBytes(); }
  ann::MemoryBreakdown MemoryUsage() const override {
    return inner_->MemoryUsage();
  }
  ann::Metric metric() const override { return inner_->metric(); }
  std::string_view kind() const override { return inner_->kind(); }
  util::Status Save(const std::string& path) const override {
    return inner_->Save(path);
  }

 private:
  std::unique_ptr<ann::VectorIndex> inner_;
  mutable std::atomic<uint64_t> calls_{0};
  mutable std::atomic<uint64_t> busy_ns_{0};
  mutable std::atomic<uint64_t> distance_evals_{0};
  mutable std::atomic<uint64_t> visited_{0};
  mutable std::atomic<int64_t> first_ns_{INT64_MAX};
  mutable std::atomic<int64_t> last_ns_{0};
};

class TracedIndexFactory final : public ann::VectorIndexFactory {
 public:
  explicit TracedIndexFactory(std::unique_ptr<ann::VectorIndexFactory> inner)
      : inner_(std::move(inner)) {}
  std::unique_ptr<ann::VectorIndex> Create(size_t dim,
                                           ann::Metric metric) const override {
    return std::make_unique<TracedIndex>(inner_->Create(dim, metric));
  }

 private:
  std::unique_ptr<ann::VectorIndexFactory> inner_;
};

/// Encoder decorator: "embed.fit" spans; per-call encode time and bytes are
/// aggregated into per-thread, per-phase counters instead of spans.
class TracedEncoder final : public embed::TextEncoder {
 public:
  explicit TracedEncoder(std::unique_ptr<embed::TextEncoder> inner)
      : inner_(std::move(inner)) {}

  size_t dim() const override { return inner_->dim(); }
  std::unique_ptr<embed::TextEncoder> Clone() const override {
    return std::make_unique<TracedEncoder>(inner_->Clone());
  }
  void FitCorpus(const std::vector<std::string>& corpus) override;
  void EncodeInto(std::string_view text, std::span<float> out) const override;
  std::string_view kind() const override { return inner_->kind(); }
  util::Status Save(const std::string& path) const override {
    return inner_->Save(path);
  }

 private:
  std::unique_ptr<embed::TextEncoder> inner_;
};

/// Pruner decorator: one "prune" span with the pruner's own counters.
class TracedPruner final : public core::Pruner {
 public:
  explicit TracedPruner(std::unique_ptr<core::Pruner> inner)
      : inner_(std::move(inner)) {}
  std::vector<eval::Tuple> Prune(const core::MergeTable& integrated,
                                 const core::PruneContext& ctx,
                                 core::PruneStats* stats) const override;

 private:
  std::unique_ptr<core::Pruner> inner_;
};

/// Phase spans ("phase.selection", ...) and merge-level spans. The library
/// reports a level only when it completes, so a level's span runs from the
/// previous level's end (or the merging phase's start) to its own event.
class PhaseRecorder final : public core::PipelineObserver {
 public:
  void OnPhaseStart(std::string_view phase) override;
  void OnPhaseEnd(std::string_view phase, double seconds) override;
  void OnMergeLevel(const core::MergeLevelProgress& progress) override;

 private:
  int64_t phase_start_ns_ = 0;
  int64_t level_start_ns_ = 0;
};

/// Per-layer numbers derived from the recorded spans and counters of one
/// pipeline run: core.pipeline, embed, core.attribute_selector, ann,
/// core.merge and core.density_pruner. `threads` is the run's num_threads.
/// Self times are exact on a serial run; a parallel run divides busy sums
/// by its active threads.
std::map<std::string, double> PipelineLayers(const std::vector<Span>& spans,
                                             size_t threads);

}  // namespace multiem::ledger

#endif  // MULTIEM_BENCH_LEDGER_INSTRUMENTS_H_
