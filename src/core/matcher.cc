#include "core/matcher.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "ann/mutual_topk.h"
#include "cluster/union_find.h"
#include "core/artifact.h"
#include "core/two_table_merger.h"
#include "embed/serialize.h"
#include "util/timer.h"

namespace multiem::core {
namespace {

// The live (untombstoned) items of an entity table, in item order: their
// ids and their vectors, derived from `store`.
struct LiveItems {
  std::vector<uint32_t> ids;
  embed::EmbeddingMatrix rows;
};

LiveItems GatherLiveItems(const MergeTable& entities,
                          const EntityEmbeddingStore& store) {
  LiveItems live{{}, embed::EmbeddingMatrix(entities.num_live_items(),
                                            store.dim())};
  live.ids.reserve(entities.num_live_items());
  for (size_t i = 0; i < entities.num_items(); ++i) {
    if (entities.members(i).empty()) continue;
    store.ItemVector(entities.members(i), live.rows.Row(live.ids.size()));
    live.ids.push_back(static_cast<uint32_t>(i));
  }
  return live;
}

// A fresh serving index over the live items of `entities`, slot s holding
// item (*slot_to_item)[s]: Assemble's build and AddTable's compaction.
std::unique_ptr<ann::VectorIndex> BuildServingIndex(
    const ann::VectorIndexFactory& factory, const MergeTable& entities,
    const EntityEmbeddingStore& store, util::ThreadPool* pool,
    std::vector<uint32_t>* slot_to_item) {
  LiveItems live = GatherLiveItems(entities, store);
  std::unique_ptr<ann::VectorIndex> index =
      factory.Create(store.dim(), ann::Metric::kCosine);
  index->AddBatch(live.rows, pool);
  *slot_to_item = std::move(live.ids);
  return index;
}

util::Status CheckSchema(const std::vector<std::string>& schema_names,
                         const table::Table& t) {
  if (t.schema().names() != schema_names) {
    return util::Status::InvalidArgument(
        "table '" + t.name() +
        "' does not carry the session schema this matcher was built on");
  }
  return util::Status::Ok();
}

// Serializes the selected columns of every row of `t` and encodes them.
embed::EmbeddingMatrix EncodeTable(const embed::TextEncoder& encoder,
                                   const AttributeSelection& selection,
                                   const table::Table& t,
                                   util::ThreadPool* pool) {
  return encoder.EncodeBatch(
      embed::SerializeTable(t, selection.selected_columns), pool);
}

}  // namespace

util::Result<Matcher> Matcher::Assemble(
    MultiEmConfig config, std::vector<std::string> schema_names,
    AttributeSelection selection, std::vector<std::string> source_names,
    EntityEmbeddingStore store, MergeTable entities,
    std::shared_ptr<embed::TextEncoder> encoder,
    std::shared_ptr<const ann::VectorIndexFactory> index_factory,
    std::unique_ptr<ann::VectorIndex> index, util::ThreadPool* pool,
    std::vector<uint32_t> slot_to_item) {
  if (encoder == nullptr || index_factory == nullptr) {
    return util::Status::InvalidArgument(
        "Matcher needs a fitted encoder and an index factory");
  }
  if (schema_names.empty()) {
    return util::Status::InvalidArgument("Matcher needs a non-empty schema");
  }
  if (store.num_sources() != source_names.size()) {
    return util::Status::InvalidArgument(
        "Matcher store has " + std::to_string(store.num_sources()) +
        " sources but " + std::to_string(source_names.size()) + " names");
  }
  const size_t dim = store.dim();
  if (dim == 0 || encoder->dim() != dim) {
    return util::Status::InvalidArgument(
        "Matcher dimensionality mismatch: store " + std::to_string(dim) +
        ", encoder " + std::to_string(encoder->dim()));
  }
  // store.dim() only reflects source 0; every source matrix must agree, or
  // deriving an item's vector would walk a narrower row with the wider dim
  // (a crafted manifest could otherwise smuggle one in).
  for (size_t s = 0; s < store.num_sources(); ++s) {
    if (store.source(s).dim() != dim) {
      return util::Status::InvalidArgument(
          "Matcher base source " + std::to_string(s) + " is " +
          std::to_string(store.source(s).dim()) + "-dimensional, source 0 is " +
          std::to_string(dim));
    }
  }
  for (size_t col : selection.selected_columns) {
    if (col >= schema_names.size()) {
      return util::Status::InvalidArgument(
          "Matcher selection references column " + std::to_string(col) +
          " of a " + std::to_string(schema_names.size()) + "-column schema");
    }
  }
  MULTIEM_RETURN_IF_ERROR(entities.CheckMembers(store));
  const size_t num_items = entities.num_items();

  auto state = std::make_shared<ServingState>();
  state->source_names = std::move(source_names);
  state->store = std::move(store);
  state->entities = std::move(entities);

  if (index == nullptr) {
    if (!slot_to_item.empty() || state->entities.num_tombstones() > 0) {
      return util::Status::InvalidArgument(
          "a fresh serving index takes no slot map and no tombstones");
    }
    index = BuildServingIndex(*index_factory, state->entities, state->store,
                              pool, &slot_to_item);
  } else {
    // Artifact-load path: the persisted index is the serving index,
    // verbatim — that is what makes reloaded search results identical.
    if (index->metric() != ann::Metric::kCosine) {
      return util::Status::InvalidArgument(
          "serving index must use the cosine metric");
    }
    // dim() == 0 means "unknown" (an implementation without the accessor);
    // anything else must agree with the store, or Search would walk rows of
    // the wrong width.
    if (index->dim() != 0 && index->dim() != dim) {
      return util::Status::InvalidArgument(
          "serving index is " + std::to_string(index->dim()) +
          "-dimensional, entity embeddings are " + std::to_string(dim));
    }
    // An artifact without a "slots" section: slot i holds item i.
    if (slot_to_item.empty()) {
      slot_to_item.resize(num_items);
      std::iota(slot_to_item.begin(), slot_to_item.end(), uint32_t{0});
    }
  }

  // The slot map must be a bijection between live slots and live items:
  // every item findable through exactly one slot, every other slot
  // explicitly retired, and no tombstone findable at all.
  if (slot_to_item.size() > UINT32_MAX ||
      index->size() != slot_to_item.size()) {
    return util::Status::InvalidArgument(
        "serving index holds " + std::to_string(index->size()) +
        " vectors, slot map covers " + std::to_string(slot_to_item.size()) +
        " slots");
  }
  std::vector<uint32_t> slot_of_item(num_items, kDeadSlot);
  for (size_t slot = 0; slot < slot_to_item.size(); ++slot) {
    const uint32_t item = slot_to_item[slot];
    if (item == kDeadSlot) {
      ++state->dead_slots;
      continue;
    }
    if (item >= num_items) {
      return util::Status::InvalidArgument(
          "slot map references item " + std::to_string(item) + " of a " +
          std::to_string(num_items) + "-item entity table");
    }
    if (slot_of_item[item] != kDeadSlot) {
      return util::Status::InvalidArgument("slot map holds item " +
                                           std::to_string(item) + " twice");
    }
    slot_of_item[item] = static_cast<uint32_t>(slot);
  }
  for (size_t i = 0; i < num_items; ++i) {
    const bool tombstone = state->entities.members(i).empty();
    if (!tombstone && slot_of_item[i] == kDeadSlot) {
      return util::Status::InvalidArgument(
          "item " + std::to_string(i) + " has no live index slot");
    }
    if (tombstone && slot_of_item[i] != kDeadSlot) {
      return util::Status::InvalidArgument(
          "tombstoned item " + std::to_string(i) + " holds live slot " +
          std::to_string(slot_of_item[i]));
    }
  }
  state->slot_to_item = std::move(slot_to_item);
  state->index = std::shared_ptr<const ann::VectorIndex>(std::move(index));

  Matcher matcher;
  auto fixed = std::make_shared<Fixed>();
  fixed->config = std::move(config);
  fixed->schema_names = std::move(schema_names);
  fixed->selection = std::move(selection);
  fixed->encoder = std::move(encoder);
  fixed->index_factory = std::move(index_factory);
  matcher.fixed_ = std::move(fixed);
  matcher.shared_ = std::make_unique<Shared>();
  matcher.shared_->state.store(std::move(state), std::memory_order_release);
  return matcher;
}

Matcher::Snapshot Matcher::snapshot() const { return Snapshot(fixed_, state()); }

uint64_t Matcher::epoch() const { return state()->epoch; }

size_t Matcher::num_items() const { return state()->entities.num_items(); }

std::vector<table::EntityId> Matcher::item_members(size_t i) const {
  return state()->entities.members(i);
}

std::vector<std::string> Matcher::source_names() const {
  return state()->source_names;
}

const ann::VectorIndex& Matcher::index() const { return *state()->index; }

util::Result<std::vector<std::vector<RecordMatch>>> Matcher::MatchRecords(
    const table::Table& records, const MatchOptions& options) const {
  return snapshot().MatchRecords(records, options);
}

util::Result<std::vector<std::vector<RecordMatch>>> Matcher::MatchRecords(
    const table::Table& records, size_t k, util::ThreadPool* pool) const {
  MatchOptions options;
  options.k = k;
  options.pool = pool;
  return snapshot().MatchRecords(records, options);
}

util::Result<std::vector<std::vector<RecordMatch>>>
Matcher::Snapshot::MatchRecords(const table::Table& records, size_t k,
                                util::ThreadPool* pool) const {
  MatchOptions options;
  options.k = k;
  options.pool = pool;
  return MatchRecords(records, options);
}

util::Result<std::vector<std::vector<RecordMatch>>>
Matcher::Snapshot::MatchRecords(const table::Table& records,
                                const MatchOptions& options) const {
  MULTIEM_RETURN_IF_ERROR(CheckSchema(fixed_->schema_names, records));
  if (options.k == 0) {
    return util::Status::InvalidArgument("MatchRecords needs k >= 1");
  }
  util::WallTimer timer;
  const embed::EmbeddingMatrix queries = EncodeTable(
      *fixed_->encoder, fixed_->selection, records, options.pool);

  const ServingState& s = *state_;
  const ann::VectorIndex& index = *s.index;
  // Oversample by the retired-slot count so k live hits survive the filter
  // (AddTable compacts before dead slots exceed 25%, so this stays small).
  const size_t want = std::min(options.k + s.dead_slots, index.size());
  const bool collect = options.observer != nullptr;

  std::vector<std::vector<RecordMatch>> matches(queries.num_rows());
  std::vector<MatchQueryStats> stats(collect ? queries.num_rows() : 0);
  util::ParallelFor(
      options.pool, queries.num_rows(),
      [&](size_t row) {
        ann::SearchStats search_stats;
        const std::vector<ann::Neighbor> hits = index.SearchWithStats(
            queries.Row(row), want, options.ef_search,
            collect ? &search_stats : nullptr);
        std::vector<RecordMatch>& out = matches[row];
        out.reserve(std::min(options.k, hits.size()));
        for (const ann::Neighbor& hit : hits) {
          if (out.size() == options.k) break;
          const uint32_t item = s.slot_to_item[hit.id];
          if (item == kDeadSlot) continue;  // retired slot: centroid moved
          out.push_back({item, hit.distance});
        }
        // Slot->item remapping can permute ties; restore the documented
        // (distance, item) order.
        std::sort(out.begin(), out.end(),
                  [](const RecordMatch& a, const RecordMatch& b) {
                    if (a.distance != b.distance) {
                      return a.distance < b.distance;
                    }
                    return a.item < b.item;
                  });
        if (collect) {
          stats[row] = {search_stats.visited, search_stats.distance_evals,
                        out.size()};
        }
      },
      /*min_block_size=*/8);

  if (collect) {
    for (size_t row = 0; row < stats.size(); ++row) {
      options.observer->OnQueryMatched(row, stats[row]);
    }
    options.observer->OnBatchMatched(queries.num_rows(),
                                     timer.ElapsedSeconds());
  }
  return matches;
}

util::Status Matcher::AddTable(const table::Table& table,
                               util::ThreadPool* pool) {
  AddTableOptions options;
  options.pool = pool;
  return AddTable(table, options);
}

util::Status Matcher::AddTable(const table::Table& table,
                               const AddTableOptions& options) {
  MULTIEM_RETURN_IF_ERROR(CheckSchema(fixed_->schema_names, table));
  if (table.num_rows() == 0) {
    return util::Status::InvalidArgument(
        "table '" + table.name() + "' is empty: nothing to merge");
  }

  // One writer at a time; readers are never blocked — they keep serving the
  // published state until the release-store below swaps the next one in.
  std::lock_guard<std::mutex> writer(shared_->write_mu);
  const std::shared_ptr<const ServingState> old = state();

  if (std::find(old->source_names.begin(), old->source_names.end(),
                table.name()) != old->source_names.end()) {
    return util::Status::InvalidArgument(
        "source '" + table.name() + "' was already merged into this session");
  }
  if (old->source_names.size() >= (size_t{1} << 16)) {
    return util::Status::ResourceExhausted(
        "EntityId packs the source into 16 bits; 65536 sources reached");
  }

  const uint32_t source = static_cast<uint32_t>(old->source_names.size());
  const size_t dim = old->store.dim();
  embed::EmbeddingMatrix embeddings = EncodeTable(
      *fixed_->encoder, fixed_->selection, table, options.pool);

  // One pairwise match (Algorithm 3 step 1) between the existing entity
  // table's *live* items and the new rows — the same mutual top-K standard
  // a pipeline merge level uses. Tombstoned items are retired entries
  // with nothing to match; they must not attract matches. Only their ids
  // outlive the match: the derived rows are freed before the entity
  // chunks and the index are copied below.
  const size_t n_old = old->entities.num_items();
  std::vector<uint32_t> live_ids;
  std::vector<ann::MutualPair> matched_pairs;
  {
    LiveItems live = GatherLiveItems(old->entities, old->store);
    matched_pairs = ann::MutualTopK(live.rows, embeddings,
                                    *fixed_->index_factory,
                                    MutualOptionsFromConfig(fixed_->config),
                                    options.pool);
    live_ids = std::move(live.ids);
  }

  auto next = std::make_shared<ServingState>();
  next->epoch = old->epoch + 1;
  next->source_names = old->source_names;
  next->source_names.push_back(table.name());
  next->store = old->store;  // O(sources) shared_ptr copies, no payload copy
  next->store.AddSource(std::move(embeddings));
  const embed::EmbeddingMatrix& fresh = next->store.source(source);

  // Union by transitivity (Algorithm 3 step 2). Old items take union-find
  // ids [0, n_old); the new rows take [n_old, ...).
  const size_t n_new = table.num_rows();
  cluster::UnionFind uf(n_old + n_new);
  for (const ann::MutualPair& match : matched_pairs) {
    uf.Union(live_ids[match.left], n_old + match.right);
  }

  // Update the entity table in place. Item ids are stable across epochs by
  // construction: an untouched item keeps its index (and, through the
  // copy-on-write chunks of MergeTable, is not even copied — consecutive
  // epochs share every chunk the ingest left alone); a merged group lands
  // at its smallest old item id with the other old participants tombstoned;
  // unmatched new rows append at the end. Every union edge crosses into the
  // new source, so a group is unchanged iff it is exactly one old item.
  // Vectors come from EntityEmbeddingStore::ItemVector, as in
  // TwoTableMerger::Merge, so the two paths stay bitwise equal.
  next->entities = old->entities;  // O(num_chunks) pointer copies
  std::vector<uint32_t> inserted_items;  // items the index must (re)learn
  embed::EmbeddingMatrix inserted(0, dim);  // their vectors, in order
  std::vector<bool> retired(n_old, false);  // old items whose slots retire
  size_t num_retired = 0;
  std::vector<float> vector(dim);
  for (const std::vector<size_t>& group : uf.Groups()) {
    if (group.size() == 1 && group[0] < n_old) continue;  // untouched
    if (group.size() == 1) {
      // Unmatched new row: a fresh single-member item, whose vector is its
      // own embedding.
      const size_t row = group[0] - n_old;
      inserted_items.push_back(
          static_cast<uint32_t>(next->entities.num_items()));
      next->entities.Append({table::EntityId(source, row)});
      inserted.AppendRow(fresh.Row(row));
      continue;
    }
    // A multi-node group holds at least one old item (edges are old<->new).
    std::vector<table::EntityId> members;
    size_t target = n_old;
    for (size_t uf_id : group) {
      if (uf_id < n_old) {
        target = std::min(target, uf_id);
        const std::vector<table::EntityId>& old_members =
            old->entities.members(uf_id);
        members.insert(members.end(), old_members.begin(), old_members.end());
      } else {
        members.push_back(table::EntityId(source, uf_id - n_old));
      }
    }
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
    // Every old participant's slot retires: the absorbed items become
    // tombstones, and the target's vector moved, so its new one is inserted
    // under a fresh slot.
    for (size_t uf_id : group) {
      if (uf_id >= n_old) continue;
      retired[uf_id] = true;
      ++num_retired;
      if (uf_id != target) next->entities.Tombstone(uf_id);
    }
    inserted_items.push_back(static_cast<uint32_t>(target));
    next->store.ItemVector(members, vector);
    inserted.AppendRow(vector);
    next->entities.Replace(target, std::move(members));
  }

  // Extend the serving index. Preferred path: clone the published graph
  // (readers searching it are never raced — the insert-under-readers
  // contract of index.h) with room for the new/changed vectors, insert them
  // into the private clone, and retire the slots of absorbed items in the
  // slot map. Compact with a full rebuild when retired slots would exceed
  // 25%, the index kind cannot clone, or the caller forces the reference
  // rebuild path.
  const size_t total_slots = old->slot_to_item.size() + inserted_items.size();
  const size_t dead_slots = old->dead_slots + num_retired;
  std::unique_ptr<ann::VectorIndex> clone;
  if (!options.rebuild_index && total_slots <= UINT32_MAX &&
      dead_slots * 4 <= total_slots) {
    clone = old->index->CloneAndAdd(inserted, options.pool);
  }
  if (clone != nullptr) {
    next->index = std::move(clone);
    next->slot_to_item.reserve(total_slots);
    for (uint32_t item : old->slot_to_item) {
      next->slot_to_item.push_back(
          item != kDeadSlot && retired[item] ? kDeadSlot : item);
    }
    next->slot_to_item.insert(next->slot_to_item.end(),
                              inserted_items.begin(), inserted_items.end());
    next->dead_slots = dead_slots;
  } else {
    // Compaction: a fresh index over the live items only. Item ids still do
    // not move — tombstones keep their (slotless) table entries; only the
    // retired index slots are dropped.
    next->index =
        BuildServingIndex(*fixed_->index_factory, next->entities, next->store,
                          options.pool, &next->slot_to_item);
  }

  // Publish: the release store pairs with every reader's acquire load, so
  // a reader that observes the new pointer sees the fully built state.
  MULTIEM_TSAN_ACQUIRE(&shared_->state);  // see the shim note in matcher.h
  shared_->state.store(std::move(next), std::memory_order_release);
  return util::Status::Ok();
}

util::Status Matcher::Save(const std::string& dir) const {
  return PipelineArtifact::Save(*this, dir);
}

}  // namespace multiem::core
