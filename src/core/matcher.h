/// \file matcher.h
/// The serving half of the pipeline: a Matcher is a ready-to-query session
/// over a finished MultiEM run — the fitted encoder, the integrated entity
/// table of the merging phase, and one ANN index over its item
/// representations. It answers two requests without ever refitting or
/// re-running the pipeline:
///
///  * MatchRecords(records, k): encode new rows with the run's fitted
///    encoder (same attribute selection, same SIF weights) and return each
///    row's top-k entity items by cosine distance — the online-query path.
///  * AddTable(table): merge one new source into the entity store through
///    the same mutual top-K relation (Eq. 1) a pipeline merge level uses,
///    then extend the serving index incrementally — the live-ingest path.
///
/// A Matcher is produced by MultiEmPipeline::Run with
/// RunContext::build_matcher set, or restored from disk via
/// MultiEmPipeline::LoadArtifact / core::PipelineArtifact (artifact.h); a
/// saved and reloaded Matcher answers MatchRecords identically to the
/// original in-memory session. See docs/API.md "Persistence & serving".

#ifndef MULTIEM_CORE_MATCHER_H_
#define MULTIEM_CORE_MATCHER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ann/index.h"
#include "ann/index_factory.h"
#include "core/attribute_selector.h"
#include "core/config.h"
#include "core/merge_table.h"
#include "embed/text_encoder.h"
#include "eval/tuples.h"
#include "table/table.h"
#include "util/status.h"
#include "util/thread_pool.h"

// ThreadSanitizer modeling shim for libstdc++'s std::atomic<std::shared_ptr>
// (the serving-state swap point). Its _Sp_atomic embeds a spinlock in the
// refcount word and unlocks the reader path with memory_order_relaxed
// (GCC 12): mutual exclusion over the guarded pointer field is still real —
// the lock is taken with an acquire RMW — but TSan sees no happens-before
// edge from a reader's critical section to the next writer's, and reports
// the field as racing. The annotations below restore exactly that edge:
// every reader releases on the swap point right after loading, the writer
// acquires it right before storing. They compile to nothing outside TSan
// builds and hide no real race (writer/reader ordering proper is carried by
// the release-store/acquire-load pair on the atomic itself).
#if defined(__SANITIZE_THREAD__)
#define MULTIEM_TSAN_ENABLED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MULTIEM_TSAN_ENABLED 1
#endif
#endif
#ifdef MULTIEM_TSAN_ENABLED
extern "C" {
void __tsan_acquire(void* addr);
void __tsan_release(void* addr);
}
#define MULTIEM_TSAN_ACQUIRE(addr) __tsan_acquire((void*)(addr))
#define MULTIEM_TSAN_RELEASE(addr) __tsan_release((void*)(addr))
#else
#define MULTIEM_TSAN_ACQUIRE(addr) ((void)0)
#define MULTIEM_TSAN_RELEASE(addr) ((void)0)
#endif

namespace multiem::core {

/// One serving-time hit: an item of the matcher's entity table and its
/// cosine distance to the query record's embedding.
struct RecordMatch {
  /// Index into the entity table of the epoch the call observed; resolve
  /// members via the same Snapshot's item_members(item) (see
  /// Matcher::snapshot() for why ids are epoch-relative).
  size_t item;
  float distance;

  friend bool operator==(const RecordMatch& a, const RecordMatch& b) {
    return a.item == b.item && a.distance == b.distance;
  }
};

/// Per-query ANN instrumentation of one MatchRecords call (mirrors
/// pbbsbench's recall-harness counters): how much of the graph the query
/// expanded and how many distances it computed, plus the hit count after
/// dead-slot filtering.
struct MatchQueryStats {
  size_t visited = 0;
  size_t distance_evals = 0;
  size_t hits = 0;
};

/// Observer of a batched MatchRecords call, in the PipelineObserver style:
/// every hook fires on the thread that called MatchRecords, after the
/// parallel fan-out has completed, in query-row order — implementations need
/// no locking. Default implementations do nothing.
class MatchObserver {
 public:
  virtual ~MatchObserver() = default;

  /// One query's counters, fired per row in ascending row order.
  virtual void OnQueryMatched(size_t row, const MatchQueryStats& stats) {
    (void)row;
    (void)stats;
  }

  /// End of the batch: number of queries and the wall-clock seconds the
  /// whole call took (encoding + search + resolution).
  virtual void OnBatchMatched(size_t num_queries, double seconds) {
    (void)num_queries;
    (void)seconds;
  }
};

/// Options of the batched MatchRecords overload.
struct MatchOptions {
  /// Hits returned per query row (>= 1).
  size_t k = 1;
  /// ANN beam width override; 0 keeps the index's configured default.
  /// Exact indexes ignore it. Raised to k either way.
  size_t ef_search = 0;
  /// Fans the query batch (encoding and searches) out across the pool under
  /// one util::TaskGroup; null runs on the calling thread.
  util::ThreadPool* pool = nullptr;
  /// Optional instrumentation sink (see MatchObserver).
  MatchObserver* observer = nullptr;
};

/// Options of AddTable.
struct AddTableOptions {
  /// Parallelizes encoding, the mutual top-K match, and the index insertion.
  util::ThreadPool* pool = nullptr;
  /// Forces the full index rebuild of the pre-epoch-swap serving path
  /// instead of clone-and-insert. The merge itself is identical either way;
  /// this is the reference baseline the incremental path is benchmarked and
  /// equivalence-tested against (bench_serve, persist_test).
  bool rebuild_index = false;
};

/// A loaded (or freshly run) matching session. Move-only: it owns the
/// serving state and shares the fitted encoder.
///
/// Thread-safety — the epoch-swap contract:
///
///  * All read paths (MatchRecords, snapshot(), the accessors) are const,
///    lock-free, and safe from any number of threads at any time, including
///    while AddTable runs. Each read acquires the current immutable
///    ServingState once via an atomic shared_ptr load and never sees a
///    half-updated store.
///  * AddTable is the writer: it serializes against other AddTable/Save
///    calls on an internal mutex, builds the next state privately (cloning
///    the ANN index and inserting into the private clone, so readers of the
///    published graph are never raced), and publishes it with one
///    release-store swap. Readers that loaded the old state keep serving
///    from it; its shared_ptr keeps it alive until the last reader drops it.
///  * Memory ordering: the writer's release store pairs with every reader's
///    acquire load, so everything written into a state before publication
///    is visible to any reader that observes the new pointer. States are
///    never mutated after publication. docs/API.md ("Threading model")
///    spells out the full invariants.
///
/// Item ids are epoch-relative: a RecordMatch::item obtained from one call
/// indexes the entity table of the epoch that call observed. Point-in-time
/// accessors (num_items, item_members, Tuples, source_names) are therefore
/// individually consistent but may straddle epochs across calls; callers
/// that resolve hits while a writer may be active should take one
/// snapshot() and do all reads through it.
class Matcher {
 public:
  class Snapshot;

  /// Sentinel in a slot->item map for a retired index slot (its vector
  /// belongs to an item whose centroid has since moved).
  static constexpr uint32_t kDeadSlot = UINT32_MAX;

  Matcher(Matcher&&) = default;
  Matcher& operator=(Matcher&&) = default;
  Matcher(const Matcher&) = delete;
  Matcher& operator=(const Matcher&) = delete;

  /// Builds a session from a finished run's state. `index` may be null, in
  /// which case one is created from `index_factory` over the items'
  /// vectors, derived from `store` (`pool`, optional, parallelizes that
  /// build); the table must then carry no tombstones and `slot_to_item`
  /// must be empty. A non-null `index` (the artifact-load path) is taken
  /// as-is and must be under the cosine metric; `slot_to_item` maps its
  /// slots to entity items (kDeadSlot marks retired slots), and an empty
  /// map, from an artifact without a "slots" section, stands for the
  /// identity. The map must be a bijection between live slots and
  /// untombstoned items. `encoder` must be fitted; `selection` and
  /// `schema_names` must describe the run that produced `store`/`entities`.
  static util::Result<Matcher> Assemble(
      MultiEmConfig config, std::vector<std::string> schema_names,
      AttributeSelection selection, std::vector<std::string> source_names,
      EntityEmbeddingStore store, MergeTable entities,
      std::shared_ptr<embed::TextEncoder> encoder,
      std::shared_ptr<const ann::VectorIndexFactory> index_factory,
      std::unique_ptr<ann::VectorIndex> index = nullptr,
      util::ThreadPool* pool = nullptr,
      std::vector<uint32_t> slot_to_item = {});

  /// Answers entity-match queries for every row of `records` (a table with
  /// the session's schema): each row is serialized with the run's selected
  /// attributes, encoded with the fitted encoder, and matched against the
  /// serving index of one consistent epoch. Returns one vector per input
  /// row with up to `options.k` hits sorted by ascending (distance, item).
  /// Hits are raw nearest neighbors; callers wanting the pipeline's
  /// matching standard should drop hits with distance > config().m. With
  /// `options.pool`, the batch fans out across the pool under one
  /// util::TaskGroup; `options.observer` receives per-query
  /// visited/distance-eval counters afterwards. Safe concurrently with
  /// AddTable (see the class comment).
  util::Result<std::vector<std::vector<RecordMatch>>> MatchRecords(
      const table::Table& records, const MatchOptions& options) const;

  /// Convenience overload: MatchOptions with just `k` and `pool` set.
  util::Result<std::vector<std::vector<RecordMatch>>> MatchRecords(
      const table::Table& records, size_t k,
      util::ThreadPool* pool = nullptr) const;

  /// Merges `table` into the session as a new source: rows are encoded with
  /// the fitted encoder (no refit), matched against the entity table through
  /// the same mutual top-K relation (Eq. 1, ann::MutualTopK) a pipeline
  /// merge level uses — by an exact scan or two indexes, chosen from the
  /// session's config and the two row counts as a pipeline merge chooses
  /// (MutualOptionsFromConfig) — and unioned into the existing items.
  /// The session stores member lists, not vectors: an item's vector is
  /// derived from the base store (EntityEmbeddingStore::ItemVector) where
  /// one is needed, so an epoch copies the member lists of the chunks it
  /// touches and never a row. The serving index grows incrementally: the
  /// current index is cloned with room for the vectors of new/changed
  /// items, which are inserted into the clone (VectorIndex::CloneAndAdd;
  /// slots of absorbed items are retired via the slot map), and the new
  /// state is published atomically, so concurrent MatchRecords readers
  /// never block and never observe a torn table. When retired slots exceed
  /// 25% of the index — or the index kind cannot Clone — the index is
  /// compacted by a full rebuild instead. Unmatched rows become new
  /// single-member items. The table must use the session's schema and a
  /// source name not seen before. Writers serialize on an internal mutex.
  util::Status AddTable(const table::Table& table,
                        const AddTableOptions& options);

  /// Convenience overload: AddTableOptions with just `pool` set.
  util::Status AddTable(const table::Table& table,
                        util::ThreadPool* pool = nullptr);

  /// Persists the session to directory `dir` (PipelineArtifact layout:
  /// manifest + encoder + index files; see docs/FORMATS.md). Reads one
  /// consistent epoch, so it is safe concurrently with readers and with an
  /// AddTable writer (the artifact is the epoch Save observed). Restore
  /// with MultiEmPipeline::LoadArtifact.
  util::Status Save(const std::string& dir) const;

  /// An immutable point-in-time view of the serving state (see snapshot()).
  Snapshot snapshot() const;

  /// Ingest epoch of the current state: 0 after Assemble, +1 per AddTable.
  uint64_t epoch() const;

  /// Number of items in the entity table (matched groups and singletons).
  size_t num_items() const;

  /// Member entities of item `i` (sorted; size 1 = so-far-unmatched
  /// record). Returns a copy: under a concurrent AddTable the underlying
  /// epoch may retire at any time. Item ids are epoch-relative — resolve
  /// ids from MatchRecords through one Snapshot instead when a writer may
  /// be active.
  std::vector<table::EntityId> item_members(size_t i) const;

  /// The entity table's matched tuples (items with >= 2 members) in
  /// canonical form — the unpruned counterpart of PipelineResult::tuples.
  /// One consistent epoch. (Header-inline like PipelineResult::ToTupleSet,
  /// so multiem_core does not itself depend on the eval library.)
  eval::TupleSet Tuples() const;

  /// Source-table names in id order (EntityId::source indexes this). By
  /// value: AddTable appends to this list across epochs.
  std::vector<std::string> source_names() const;

  /// The common schema every served/ingested table must match.
  const std::vector<std::string>& schema_names() const {
    return fixed_->schema_names;
  }

  /// The attribute selection of the original run (MatchRecords serializes
  /// queries with exactly these columns).
  const AttributeSelection& selection() const { return fixed_->selection; }

  const MultiEmConfig& config() const { return fixed_->config; }
  const embed::TextEncoder& encoder() const { return *fixed_->encoder; }

  /// The serving index of the current epoch. The reference stays valid
  /// while the epoch does; under a concurrent writer, hold a Snapshot and
  /// use Snapshot::index() instead.
  const ann::VectorIndex& index() const;

 private:
  friend class PipelineArtifact;  // serializes one state snapshot on Save

  /// Everything fixed at Assemble time, shared by all epochs (and by
  /// outstanding Snapshots, which keep it alive past a Matcher move).
  struct Fixed {
    MultiEmConfig config;
    std::vector<std::string> schema_names;
    AttributeSelection selection;
    std::shared_ptr<embed::TextEncoder> encoder;
    std::shared_ptr<const ann::VectorIndexFactory> index_factory;
  };

  /// One immutable serving epoch. Published whole via the atomic
  /// shared_ptr in Shared; never mutated afterwards.
  struct ServingState {
    std::vector<std::string> source_names;
    EntityEmbeddingStore store;  // cheap copy: shared_ptr source matrices
    MergeTable entities;         // member lists; vectors derive from `store`
    std::shared_ptr<const ann::VectorIndex> index;
    /// Index slot -> item id, one entry per slot of `index`. kDeadSlot
    /// entries are retired slots whose vectors MatchRecords filters out;
    /// every untombstoned item has exactly one live slot.
    std::vector<uint32_t> slot_to_item;
    size_t dead_slots = 0;  ///< kDeadSlot entries of slot_to_item
    uint64_t epoch = 0;
  };

  /// The swap point. Held through unique_ptr so the Matcher stays movable
  /// (std::atomic and std::mutex are not).
  struct Shared {
    std::atomic<std::shared_ptr<const ServingState>> state;
    std::mutex write_mu;  // serializes AddTable writers
  };

  Matcher() = default;

  std::shared_ptr<const ServingState> state() const {
    std::shared_ptr<const ServingState> s =
        shared_->state.load(std::memory_order_acquire);
    MULTIEM_TSAN_RELEASE(&shared_->state);  // see the shim note at the top
    return s;
  }

  std::shared_ptr<const Fixed> fixed_;
  std::unique_ptr<Shared> shared_;
};

/// A pinned, immutable view of one serving epoch. All reads through one
/// Snapshot are mutually consistent: item ids returned by MatchRecords
/// resolve against the same entity table the search ran on, no matter how
/// many AddTable epochs retire meanwhile (the Snapshot keeps its state
/// alive). Copyable and cheap (two shared_ptr copies); safe to use from any
/// thread.
class Matcher::Snapshot {
 public:
  /// Identical semantics to Matcher::MatchRecords, but against this pinned
  /// epoch.
  util::Result<std::vector<std::vector<RecordMatch>>> MatchRecords(
      const table::Table& records, const MatchOptions& options) const;
  util::Result<std::vector<std::vector<RecordMatch>>> MatchRecords(
      const table::Table& records, size_t k,
      util::ThreadPool* pool = nullptr) const;

  uint64_t epoch() const { return state_->epoch; }
  size_t num_items() const { return state_->entities.num_items(); }

  /// Items retired by merging ingests: empty-member entries kept so later
  /// item ids never shift across epochs. Never matched against (no live
  /// index slot).
  size_t num_tombstones() const { return state_->entities.num_tombstones(); }

  /// Items that can appear in MatchRecords hits:
  /// num_items() - num_tombstones().
  size_t num_live_items() const { return state_->entities.num_live_items(); }

  /// Member entities of item `i`. The reference is valid for the life of
  /// this Snapshot (which pins the epoch).
  const std::vector<table::EntityId>& item_members(size_t i) const {
    return state_->entities.members(i);
  }

  /// Matched tuples (items with >= 2 members) in canonical form.
  /// (Header-inline so multiem_core does not depend on the eval library.)
  eval::TupleSet Tuples() const {
    std::vector<eval::Tuple> tuples;
    for (size_t i = 0; i < state_->entities.num_items(); ++i) {
      const std::vector<table::EntityId>& members = state_->entities.members(i);
      if (members.size() >= 2) tuples.push_back(members);
    }
    return eval::TupleSet(std::move(tuples));
  }

  const std::vector<std::string>& source_names() const {
    return state_->source_names;
  }

  /// Item representations (one row per item) of this epoch, derived from
  /// the base store into a new matrix — the vectors the serving index holds
  /// for live slots. Rows of tombstoned items (empty item_members) are
  /// zeros: a tombstone has no members to derive from and no live slot, so
  /// consumers must skip it. Exposed for recall oracles (bench_serve) and
  /// the centroid regression tests.
  embed::EmbeddingMatrix centroids() const {
    return state_->entities.GatherVectors(state_->store);
  }

  const ann::VectorIndex& index() const { return *state_->index; }

  /// Retired slots currently carried by the index (0 right after a rebuild
  /// or a fresh Assemble).
  size_t dead_slots() const { return state_->dead_slots; }

 private:
  friend class Matcher;

  Snapshot(std::shared_ptr<const Fixed> fixed,
           std::shared_ptr<const ServingState> state)
      : fixed_(std::move(fixed)), state_(std::move(state)) {}

  std::shared_ptr<const Fixed> fixed_;
  std::shared_ptr<const ServingState> state_;
};

inline eval::TupleSet Matcher::Tuples() const { return snapshot().Tuples(); }

}  // namespace multiem::core

#endif  // MULTIEM_CORE_MATCHER_H_
