#include "ann/hnsw.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <mutex>

#include "ann/index_io.h"
#include "util/thread_pool.h"

namespace multiem::ann {

namespace {

// Max-heap comparator on distance: front() is the *farthest* result, which
// is what the result-set heap needs.
struct FartherFirst {
  bool operator()(const Neighbor& a, const Neighbor& b) const {
    return a.distance < b.distance;
  }
};

// Min-heap comparator on distance: front() is the *closest* candidate.
struct CloserFirst {
  bool operator()(const Neighbor& a, const Neighbor& b) const {
    return a.distance > b.distance;
  }
};

bool AscendingDistanceThenId(const Neighbor& a, const Neighbor& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.id < b.id;
}

// Insert rounds (see hnsw.h): one row per round below kSequentialNodes graph
// nodes, then at most kMaxRoundRows rows and 1/kRoundShare of the graph, so
// the rows a round's searches cannot see stay few next to what they can.
constexpr size_t kSequentialNodes = 1024;
constexpr size_t kMaxRoundRows = 256;
constexpr size_t kRoundShare = 50;

// Tasks that apply a multi-row round's back edges (a power of two).
constexpr uint64_t kReverseClasses = 16;

}  // namespace

/// Pooled per-search working set. The stamps vector plays the old
/// VisitedList role; the heaps and insertion buffers keep the hot loops free
/// of per-call allocations (they retain their capacity across reuses).
struct HnswIndex::SearchScratch {
  std::vector<uint32_t> stamps;
  uint32_t current = 0;
  std::vector<Neighbor> candidates;  // min-heap (CloserFirst)
  std::vector<Neighbor> results;     // max-heap (FartherFirst)
  std::vector<Neighbor> found;       // SearchLayer output, ascending
  std::vector<float> query_norm;     // normalized query copy (cosine)
  std::vector<Neighbor> prune;       // ConnectReverse candidate buffer
  std::vector<uint32_t> selected;    // forward links of the inserted node
  std::vector<uint32_t> reverse_selected;  // re-pruned neighbor links
  // Quantized-search query context: when active, the traversal loops score
  // candidates against the code plane (QueryDistance); inserts and plain
  // fp32 searches leave it inactive. Every entry point that leases scratch
  // sets the flag, so a recycled lease can never leak a stale context.
  QuantizedStore::QueryContext quant_ctx;
  bool quant_active = false;
  // Per-traversal instrumentation (SearchWithStats zeroes, then reads after
  // the descent; inserts also bump them, which is harmless — the counters
  // only mean something between that zero and that read).
  size_t visited = 0;
  size_t distance_evals = 0;
};

/// RAII acquire/release around the scratch pool.
class HnswIndex::ScratchLease {
 public:
  explicit ScratchLease(const HnswIndex& index)
      : index_(index), scratch_(index.AcquireScratch()) {}
  ~ScratchLease() { index_.ReleaseScratch(scratch_); }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  SearchScratch& operator*() const { return *scratch_; }

 private:
  const HnswIndex& index_;
  SearchScratch* scratch_;
};

HnswIndex::HnswIndex(size_t dim, Metric metric, HnswConfig config)
    : dim_(dim),
      metric_(metric),
      config_(config),
      level_rng_(config.seed) {
  if (dim_ == 0) std::abort();
  if (config_.m < 2) config_.m = 2;
  if (config_.m0 < config_.m) config_.m0 = 2 * config_.m;
  if (config_.ef_construction < config_.m) {
    config_.ef_construction = config_.m * 2;
  }
  level_lambda_ = 1.0 / std::log(static_cast<double>(config_.m));
  quant_.Reset(config_.quantization, dim_);
  level0_stride_ = config_.m0 + 1;
  upper_stride_ = config_.m + 1;
}

HnswIndex::~HnswIndex() = default;

float HnswIndex::NodeDistance(std::span<const float> query,
                              uint32_t node) const {
  std::span<const float> v = NodeVector(node);
  if (metric_ == Metric::kCosine) {
    // Both sides are unit norm here.
    return 1.0f - embed::Dot(query, v);
  }
  return Distance(metric_, query, v);
}

float HnswIndex::QueryDistance(std::span<const float> query, uint32_t node,
                               const SearchScratch& scratch) const {
  if (!scratch.quant_active) return NodeDistance(query, node);
  switch (metric_) {
    case Metric::kCosine:
      // Stored rows were normalized before encoding and the query is
      // normalized per call, so cosine reduces to 1 - dot, like the fp32
      // path.
      return 1.0f - quant_.DotRow(query, scratch.quant_ctx, node);
    case Metric::kEuclidean:
      return quant_.EuclideanRow(query, scratch.quant_ctx, node);
    case Metric::kInnerProduct:
      return -quant_.DotRow(query, scratch.quant_ctx, node);
  }
  return NodeDistance(query, node);
}

HnswIndex::SearchScratch* HnswIndex::AcquireScratch() const {
  std::lock_guard<std::mutex> lock(scratch_mu_);
  if (!scratch_pool_.empty()) {
    SearchScratch* scratch = scratch_pool_.back().release();
    scratch_pool_.pop_back();
    // Recycled scratch: grow the stamps to the current node count, stamping
    // the new tail with 0 while keeping the old entries and the `current`
    // counter. That is sound — no stale entry can read as visited: every
    // stored stamp was written as some past value of `current`, so
    // stamps[i] <= current for all i (new entries hold 0), and the next
    // search marks with ++current, strictly greater than anything stored.
    // The one place equality could arise is counter wrap-around, and
    // SearchLayer zero-fills the whole list when ++current wraps to 0.
    // AnnTest.HnswInterleavedAddSearch* exercises exactly this
    // recycle-then-grow path.
    if (scratch->stamps.size() < num_nodes_) {
      scratch->stamps.resize(num_nodes_, 0);
    }
    return scratch;
  }
  auto* scratch = new SearchScratch();
  scratch->stamps.resize(num_nodes_, 0);
  return scratch;
}

void HnswIndex::ReleaseScratch(SearchScratch* scratch) const {
  std::lock_guard<std::mutex> lock(scratch_mu_);
  scratch_pool_.emplace_back(scratch);
}

int HnswIndex::DrawLevel(util::Rng& rng) const {
  double u = rng.UniformDouble();
  if (u <= 0.0) u = 1e-12;
  return static_cast<int>(-std::log(u) * level_lambda_);
}

size_t HnswIndex::UpperLinksAfter(size_t rows) const {
  util::Rng rng = level_rng_;
  size_t blocks = 0;
  for (size_t i = 0; i < rows; ++i) blocks += size_t(DrawLevel(rng));
  return upper_links_.size() + blocks * upper_stride_;
}

void HnswIndex::EnsureOwnedSlabs() {
  vectors_.EnsureOwned();
  level0_links_.EnsureOwned();
  upper_links_.EnsureOwned();
  upper_offset_.EnsureOwned();
  node_level_.EnsureOwned();
  quant_.EnsureOwned();
}

void HnswIndex::ReserveForInserts(size_t rows) {
  const size_t nodes = num_nodes_ + rows;
  vectors_.reserve(nodes * dim_);
  level0_links_.reserve(nodes * level0_stride_);
  upper_links_.reserve(UpperLinksAfter(rows));
  upper_offset_.reserve(nodes);
  node_level_.reserve(nodes);
  quant_.Reserve(nodes);
}

uint32_t HnswIndex::RegisterNode(std::span<const float> vec) {
  if (vec.size() != dim_) std::abort();
  if (num_nodes_ >= UINT32_MAX) std::abort();  // flat ids are 32-bit
  const uint32_t node = static_cast<uint32_t>(num_nodes_);
  const size_t offset = vectors_.size();
  vectors_.append(vec.begin(), vec.end());
  if (metric_ == Metric::kCosine) {
    embed::L2NormalizeInPlace(std::span<float>(vectors_.data() + offset, dim_));
  }
  // Quantize-on-insert from the stored (post-normalization) row, so the
  // codes always decode toward what the fp32 plane actually holds.
  if (quant_.enabled()) quant_.Append(NodeVector(node));
  const int level = DrawLevel(level_rng_);
  node_level_.push_back(level);
  upper_offset_.push_back(upper_links_.size());
  level0_links_.resize(level0_links_.size() + level0_stride_, 0);
  if (level > 0) {
    upper_links_.resize(upper_links_.size() + size_t(level) * upper_stride_, 0);
  }
  ++num_nodes_;
  return node;
}

uint32_t HnswIndex::GreedySearchLayer(std::span<const float> query,
                                      uint32_t entry, int level,
                                      SearchScratch& scratch) const {
  uint32_t current = entry;
  float current_dist = QueryDistance(query, current, scratch);
  ++scratch.distance_evals;
  bool improved = true;
  while (improved) {
    improved = false;
    ++scratch.visited;
    const uint32_t* block = LinkBlock(current, level);
    const uint32_t count = block[0];
    const uint32_t* ids = block + 1;
    for (uint32_t j = 0; j < count; ++j) {
      if (j + 1 < count) {
        util::PrefetchRead(scratch.quant_active
                               ? quant_.RowData(ids[j + 1])
                               : vectors_.data() + size_t{ids[j + 1]} * dim_);
      }
      float d = QueryDistance(query, ids[j], scratch);
      ++scratch.distance_evals;
      if (d < current_dist) {
        current = ids[j];
        current_dist = d;
        improved = true;
      }
    }
  }
  return current;
}

void HnswIndex::SearchLayer(std::span<const float> query, uint32_t entry,
                            size_t ef, int level,
                            SearchScratch& scratch) const {
  if (++scratch.current == 0) {
    // Stamp counter wrapped; reset all marks once.
    std::fill(scratch.stamps.begin(), scratch.stamps.end(), 0);
    scratch.current = 1;
  }
  const uint32_t stamp = scratch.current;

  std::vector<Neighbor>& candidates = scratch.candidates;
  std::vector<Neighbor>& results = scratch.results;
  candidates.clear();
  results.clear();

  float entry_dist = QueryDistance(query, entry, scratch);
  ++scratch.distance_evals;
  candidates.push_back({entry, entry_dist});
  results.push_back({entry, entry_dist});
  scratch.stamps[entry] = stamp;

  while (!candidates.empty()) {
    Neighbor closest = candidates.front();
    if (closest.distance > results.front().distance && results.size() >= ef) {
      break;  // Every remaining candidate is farther than the worst result.
    }
    std::pop_heap(candidates.begin(), candidates.end(), CloserFirst{});
    candidates.pop_back();

    const uint32_t node = static_cast<uint32_t>(closest.id);
    ++scratch.visited;
    const uint32_t* block = LinkBlock(node, level);
    const uint32_t count = block[0];
    const uint32_t* ids = block + 1;
    for (uint32_t j = 0; j < count; ++j) {
      if (j + 1 < count) {
        // Hide the next hop's cache misses behind this distance computation:
        // its visited stamp and the head of whichever vector plane this
        // search reads (quantized codes or the fp32 row).
        util::PrefetchRead(&scratch.stamps[ids[j + 1]]);
        if (scratch.quant_active) {
          util::PrefetchRead(quant_.RowData(ids[j + 1]));
        } else {
          const float* next = vectors_.data() + size_t{ids[j + 1]} * dim_;
          util::PrefetchRead(next);
          util::PrefetchRead(next + util::kCacheLineBytes / sizeof(float));
        }
      }
      const uint32_t neighbor = ids[j];
      if (scratch.stamps[neighbor] == stamp) continue;
      scratch.stamps[neighbor] = stamp;
      float d = QueryDistance(query, neighbor, scratch);
      ++scratch.distance_evals;
      if (results.size() < ef || d < results.front().distance) {
        candidates.push_back({neighbor, d});
        std::push_heap(candidates.begin(), candidates.end(), CloserFirst{});
        // The closest candidate is the likely next hop; start pulling its
        // link block now.
        util::PrefetchRead(LinkBlock(neighbor, level));
        results.push_back({neighbor, d});
        std::push_heap(results.begin(), results.end(), FartherFirst{});
        if (results.size() > ef) {
          std::pop_heap(results.begin(), results.end(), FartherFirst{});
          results.pop_back();
        }
      }
    }
  }

  scratch.found.assign(results.begin(), results.end());
  std::sort(scratch.found.begin(), scratch.found.end(),
            AscendingDistanceThenId);
}

void HnswIndex::SelectNeighbors(const std::vector<Neighbor>& candidates,
                                size_t max_count,
                                std::vector<uint32_t>& selected) const {
  // candidates must be sorted ascending by distance (SearchLayer guarantees
  // this). Diversity heuristic: keep c only if it is closer to the query
  // than to every kept neighbor, so links spread around the query.
  selected.clear();
  for (const Neighbor& c : candidates) {
    if (selected.size() >= max_count) break;
    bool keep = true;
    std::span<const float> cv = NodeVector(static_cast<uint32_t>(c.id));
    for (uint32_t s : selected) {
      float dist_to_selected =
          metric_ == Metric::kCosine
              ? 1.0f - embed::Dot(cv, NodeVector(s))
              : Distance(metric_, cv, NodeVector(s));
      if (dist_to_selected < c.distance) {
        keep = false;
        break;
      }
    }
    if (keep) selected.push_back(static_cast<uint32_t>(c.id));
  }
  // Backfill with the nearest rejected candidates if diversity pruning left
  // the node underlinked (keeps the graph connected on tiny inputs). The
  // kept set is a subsequence of `candidates` in order, so one merge-walk
  // identifies the rejects — no per-candidate membership scan.
  if (selected.size() < max_count) {
    const size_t kept = selected.size();
    size_t next_kept = 0;
    for (const Neighbor& c : candidates) {
      if (selected.size() >= max_count) break;
      const uint32_t id = static_cast<uint32_t>(c.id);
      if (next_kept < kept && selected[next_kept] == id) {
        ++next_kept;
        continue;
      }
      selected.push_back(id);
    }
  }
}

void HnswIndex::ConnectReverse(uint32_t neighbor, uint32_t node, int level,
                               SearchScratch& scratch) {
  const size_t cap = (level == 0) ? config_.m0 : config_.m;
  uint32_t* block = MutableLinkBlock(neighbor, level);
  const uint32_t count = block[0];
  if (count < cap) {
    block[1 + count] = node;
    block[0] = count + 1;
    return;
  }
  // Over-full: re-prune the existing links plus the new edge with the
  // diversity heuristic, keyed by distance to `neighbor`.
  std::vector<Neighbor>& candidates = scratch.prune;
  candidates.clear();
  std::span<const float> nv = NodeVector(neighbor);
  candidates.push_back({node, NodeDistance(nv, node)});
  for (uint32_t j = 0; j < count; ++j) {
    candidates.push_back({block[1 + j], NodeDistance(nv, block[1 + j])});
  }
  std::sort(candidates.begin(), candidates.end(), AscendingDistanceThenId);
  SelectNeighbors(candidates, cap, scratch.reverse_selected);
  block[0] = static_cast<uint32_t>(scratch.reverse_selected.size());
  std::copy(scratch.reverse_selected.begin(), scratch.reverse_selected.end(),
            block + 1);
}

void HnswIndex::LinkForward(uint32_t node, uint32_t round_begin,
                            uint64_t entry, SearchScratch& scratch) {
  std::span<const float> query = NodeVector(node);
  const int level = node_level_[node];
  const int top_level = EntryLevel(entry);
  uint32_t current = EntryNode(entry);

  // Greedy descent through layers above the new node's level.
  for (int l = top_level; l > level; --l) {
    current = GreedySearchLayer(query, current, l, scratch);
  }

  std::vector<Neighbor>& candidates = scratch.found;
  for (int l = level; l >= 0; --l) {
    candidates.clear();
    if (l <= top_level) {
      SearchLayer(query, current, config_.ef_construction, l, scratch);
      // The next layer's beam starts from the graph as the round found it,
      // never from a round row, whose blocks another task may be writing.
      current = static_cast<uint32_t>(candidates.front().id);
    }
    // The round's earlier rows join the beam at their exact distances; as
    // in a beam of ef_construction, only the nearest ef_construction stay.
    // A row no nearer than a full beam's farthest candidate cannot be among
    // them (its id is higher than every graph node's).
    const size_t ef = config_.ef_construction;
    const size_t searched = candidates.size();
    for (uint32_t row = round_begin; row < node; ++row) {
      if (node_level_[row] < l) continue;
      const float distance = NodeDistance(query, row);
      if (searched < ef || distance < candidates[searched - 1].distance) {
        candidates.push_back({row, distance});
      }
    }
    if (candidates.size() > searched) {
      std::sort(candidates.begin(), candidates.end(), AscendingDistanceThenId);
      if (candidates.size() > ef) candidates.resize(ef);
    }
    SelectNeighbors(candidates, config_.m, scratch.selected);
    uint32_t* block = MutableLinkBlock(node, l);
    block[0] = static_cast<uint32_t>(scratch.selected.size());
    std::copy(scratch.selected.begin(), scratch.selected.end(), block + 1);
  }
}

void HnswIndex::InsertRounds(uint32_t first, util::ThreadPool* pool) {
  // A back edge as one word that sorts by (target, level, source): target
  // in bits [32,64), level in [16,32), the source's offset in its round
  // (below kMaxRoundRows) in [0,16).
  std::vector<uint64_t> edges;
  size_t rows = 0;
  for (uint32_t round = first; round < num_nodes_; round += rows) {
    rows = round < kSequentialNodes
               ? 1
               : std::min({num_nodes_ - round, kMaxRoundRows,
                           round / kRoundShare});
    const uint64_t entry = entry_state_;

    util::ParallelFor(
        pool, rows,
        [&](size_t i) {
          ScratchLease scratch(*this);
          (*scratch).quant_active = false;  // construction always scores fp32
          LinkForward(round + static_cast<uint32_t>(i), round, entry,
                      *scratch);
        },
        /*min_block_size=*/1);

    edges.clear();
    for (uint32_t i = 0; i < rows; ++i) {
      for (int l = 0; l <= node_level_[round + i]; ++l) {
        const uint32_t* block = LinkBlock(round + i, l);
        for (uint32_t j = 1; j <= block[0]; ++j) {
          edges.push_back(uint64_t{block[j]} << 32 | uint64_t(l) << 16 | i);
        }
      }
    }
    // One task per class of receiving nodes (the low bits of the id), each
    // applying its nodes' edges in (target, level, source) order, so every
    // node takes its edges in the order one-row rounds would apply them.
    const uint64_t classes = rows == 1 ? 1 : kReverseClasses;
    util::ParallelFor(
        pool, classes,
        [&](size_t c) {
          std::vector<uint64_t> owned;
          for (uint64_t edge : edges) {
            if ((edge >> 32 & (classes - 1)) == c) owned.push_back(edge);
          }
          std::sort(owned.begin(), owned.end());
          ScratchLease scratch(*this);
          for (uint64_t edge : owned) {
            ConnectReverse(static_cast<uint32_t>(edge >> 32),
                           round + static_cast<uint32_t>(edge & 0xffff),
                           static_cast<int>(edge >> 16 & 0xffff), *scratch);
          }
        },
        /*min_block_size=*/1);

    for (uint32_t node = round; node < round + rows; ++node) {
      if (node_level_[node] > EntryLevel(entry_state_)) {
        entry_state_ = PackEntryState(node_level_[node], node);
      }
    }
  }
}

void HnswIndex::Add(std::span<const float> vec) {
  EnsureOwnedSlabs();
  InsertRounds(RegisterNode(vec), /*pool=*/nullptr);
}

void HnswIndex::AddBatch(const embed::EmbeddingMatrix& vectors,
                         util::ThreadPool* pool) {
  const size_t n = vectors.num_rows();
  if (n == 0) return;
  // Room for the whole batch up front: no slab grows (and so none is copied
  // again, and no address moves) while the rows go in.
  ReserveForInserts(n);
  EnsureOwnedSlabs();
  const uint32_t first = static_cast<uint32_t>(num_nodes_);
  for (size_t i = 0; i < n; ++i) RegisterNode(vectors.Row(i));
  InsertRounds(first, pool);
}

std::vector<Neighbor> HnswIndex::Search(std::span<const float> query,
                                        size_t k) const {
  return SearchWithStats(query, k, /*ef=*/0, /*stats=*/nullptr);
}

std::vector<Neighbor> HnswIndex::SearchWithStats(std::span<const float> query,
                                                 size_t k, size_t ef,
                                                 SearchStats* stats) const {
  if (stats != nullptr) *stats = SearchStats{};
  if (num_nodes_ == 0 || k == 0) return {};
  if (ef == 0) ef = config_.ef_search;
  ef = std::max(ef, k);

  ScratchLease scratch(*this);
  (*scratch).visited = 0;
  (*scratch).distance_evals = 0;
  std::span<const float> q = query;
  if (metric_ == Metric::kCosine) {
    // Normalize into pooled scratch so the query path stays allocation-free.
    std::vector<float>& normalized = (*scratch).query_norm;
    normalized.assign(query.begin(), query.end());
    embed::L2NormalizeInPlace(normalized);
    q = normalized;
  }

  const bool quantized = quant_.enabled();
  (*scratch).quant_active = quantized;
  size_t rerank = 1;
  if (quantized) {
    (*scratch).quant_ctx = QuantizedStore::Prepare(q);
    // The beam must hold the whole rerank pool, or the exact pass could
    // only ever reorder k candidates instead of recovering ones the
    // approximate distances mis-ranked.
    rerank = std::max<size_t>(config_.rerank_factor, 1);
    ef = std::max(ef, rerank * k);
  }

  uint32_t current = EntryNode(entry_state_);
  for (int l = EntryLevel(entry_state_); l > 0; --l) {
    current = GreedySearchLayer(q, current, l, *scratch);
  }
  SearchLayer(q, current, ef, 0, *scratch);
  std::vector<Neighbor>& found = (*scratch).found;
  if (quantized) {
    // Exact rerank: re-score the top rerank * k approximate candidates
    // against the retained fp32 originals, then keep the best k.
    if (found.size() > rerank * k) found.resize(rerank * k);
    for (Neighbor& n : found) {
      n.distance = NodeDistance(q, static_cast<uint32_t>(n.id));
    }
    (*scratch).distance_evals += found.size();
    std::sort(found.begin(), found.end(), AscendingDistanceThenId);
  }
  if (found.size() > k) found.resize(k);
  if (stats != nullptr) {
    stats->visited = (*scratch).visited;
    stats->distance_evals = (*scratch).distance_evals;
  }
  return std::vector<Neighbor>(found.begin(), found.end());
}

std::unique_ptr<HnswIndex> HnswIndex::CopyWithRoom(size_t rows) const {
  // The constructor re-derives the clamped knobs and strides from config_
  // (post-clamp, so idempotent — same reasoning as Load). Copying the RNG
  // state means the clone assigns the same levels to future inserts that
  // this index would have.
  auto copy = std::make_unique<HnswIndex>(dim_, metric_, config_);
  copy->level_rng_ = level_rng_;
  copy->num_nodes_ = num_nodes_;
  const size_t nodes = num_nodes_ + rows;
  copy->vectors_ = vectors_.CopyWithCapacity(nodes * dim_);
  copy->level0_links_ = level0_links_.CopyWithCapacity(nodes * level0_stride_);
  copy->upper_links_ = upper_links_.CopyWithCapacity(UpperLinksAfter(rows));
  copy->upper_offset_ = upper_offset_.CopyWithCapacity(nodes);
  copy->node_level_ = node_level_.CopyWithCapacity(nodes);
  copy->quant_ = quant_.CopyWithCapacity(nodes);
  copy->entry_state_ = entry_state_;
  return copy;
}

std::unique_ptr<VectorIndex> HnswIndex::Clone() const {
  return CopyWithRoom(0);
}

std::unique_ptr<VectorIndex> HnswIndex::CloneAndAdd(
    const embed::EmbeddingMatrix& rows, util::ThreadPool* pool) const {
  std::unique_ptr<HnswIndex> copy = CopyWithRoom(rows.num_rows());
  copy->AddBatch(rows, pool);
  return copy;
}

size_t HnswIndex::SizeBytes() const { return MemoryUsage().total(); }

size_t HnswIndex::OwnedBytes() const {
  return vectors_.OwnedBytes() + level0_links_.OwnedBytes() +
         upper_links_.OwnedBytes() + upper_offset_.OwnedBytes() +
         node_level_.OwnedBytes() + quant_.OwnedBytes();
}

MemoryBreakdown HnswIndex::MemoryUsage() const {
  MemoryBreakdown breakdown;
  breakdown.fp32_bytes = vectors_.size() * sizeof(float);
  breakdown.quantized_bytes = quant_.CodeBytes();
  breakdown.graph_bytes = level0_links_.size() * sizeof(uint32_t) +
                          upper_links_.size() * sizeof(uint32_t) +
                          upper_offset_.size() * sizeof(uint64_t) +
                          node_level_.size() * sizeof(int32_t);
  return breakdown;
}

// ---------------------------------------------------------------------------
// Persistence (MEMINDEX artifact; byte-level spec in docs/FORMATS.md).
// ---------------------------------------------------------------------------

static_assert(sizeof(int) == sizeof(int32_t),
              "node levels serialize as i32");

util::Status HnswIndex::Save(const std::string& path) const {
  // Unquantized indexes keep writing the v1 layout byte-for-byte (the CI
  // re-save gates depend on it); only a quantized index emits v2 with the
  // extra config fields and quant sections.
  const bool quantized = quant_.enabled();
  util::ArtifactWriter artifact(
      kIndexArtifactMagic,
      quantized ? kIndexArtifactVersion : kIndexArtifactVersionFp32);

  util::ByteWriter& meta = artifact.AddSection(kIndexMetaSection);
  meta.WriteString(kKind);
  meta.WriteU64(dim_);
  meta.WriteU8(static_cast<uint8_t>(metric_));
  meta.WriteU64(num_nodes_);
  meta.WriteU64(entry_state_);

  util::ByteWriter& config = artifact.AddSection("config");
  config.WriteU64(config_.m);
  config.WriteU64(config_.m0);
  config.WriteU64(config_.ef_construction);
  config.WriteU64(config_.ef_search);
  config.WriteU64(config_.seed);
  config.WriteU64(1024);  // a retired knob's slot, ignored on load
  if (quantized) {
    config.WriteU64(static_cast<uint64_t>(config_.quantization));
    config.WriteU64(config_.rerank_factor);
  }

  const std::array<uint64_t, 4> rng_state = level_rng_.state();
  artifact.AddSection("rng").WriteU64Array(rng_state);

  artifact.AddSection("vectors").WriteF32Array(
      std::span<const float>(vectors_.data(), vectors_.size()));
  artifact.AddSection("levels").WriteI32Array(
      std::span<const int32_t>(node_level_.data(), node_level_.size()));
  artifact.AddSection("links0").WriteU32Array(
      std::span<const uint32_t>(level0_links_.data(), level0_links_.size()));

  artifact.AddSection("upper_offsets").WriteU64Array(upper_offset_.span());
  artifact.AddSection("upper_links").WriteU32Array(
      std::span<const uint32_t>(upper_links_.data(), upper_links_.size()));

  if (quantized) quant_.AppendSections(&artifact);

  return artifact.WriteFile(path);
}

namespace {

/// Link-slab sanity: every block's count within its capacity and every link
/// id a real node, so a crafted (checksum-valid) file cannot drive the
/// search loops out of bounds.
util::Status ValidateLinkSlab(const uint32_t* slab, size_t num_blocks,
                              size_t stride, size_t num_nodes,
                              const char* what) {
  for (size_t b = 0; b < num_blocks; ++b) {
    const uint32_t* block = slab + b * stride;
    if (block[0] >= stride) {
      return util::Status::InvalidArgument(
          std::string("hnsw artifact: ") + what + " block " +
          std::to_string(b) + " claims " + std::to_string(block[0]) +
          " links, capacity is " + std::to_string(stride - 1));
    }
    for (uint32_t j = 1; j <= block[0]; ++j) {
      if (block[j] >= num_nodes) {
        return util::Status::InvalidArgument(
            std::string("hnsw artifact: ") + what + " block " +
            std::to_string(b) + " links to node " +
            std::to_string(block[j]) + " of " + std::to_string(num_nodes));
      }
    }
  }
  return util::Status::Ok();
}

}  // namespace

util::Result<std::unique_ptr<HnswIndex>> HnswIndex::Load(
    const util::ArtifactReader& artifact) {
  auto meta = artifact.Section(kIndexMetaSection);
  if (!meta.ok()) return meta.status();
  std::string kind;
  MULTIEM_RETURN_IF_ERROR(meta->ReadString(&kind));
  if (kind != kKind) {
    return util::Status::InvalidArgument("artifact holds index kind '" +
                                         kind + "', not 'hnsw'");
  }
  uint64_t dim, num_nodes, entry_state;
  uint8_t metric_byte;
  MULTIEM_RETURN_IF_ERROR(meta->ReadU64(&dim));
  MULTIEM_RETURN_IF_ERROR(meta->ReadU8(&metric_byte));
  MULTIEM_RETURN_IF_ERROR(meta->ReadU64(&num_nodes));
  MULTIEM_RETURN_IF_ERROR(meta->ReadU64(&entry_state));
  MULTIEM_RETURN_IF_ERROR(meta->ExpectExhausted());
  if (dim == 0 || metric_byte > static_cast<uint8_t>(Metric::kInnerProduct) ||
      num_nodes > UINT32_MAX) {
    return util::Status::InvalidArgument(
        "hnsw artifact: malformed meta (dim " + std::to_string(dim) +
        ", metric " + std::to_string(metric_byte) + ", nodes " +
        std::to_string(num_nodes) + ")");
  }

  auto config_section = artifact.Section("config");
  if (!config_section.ok()) return config_section.status();
  HnswConfig config;
  uint64_t m, m0, ef_construction, ef_search, retired;
  MULTIEM_RETURN_IF_ERROR(config_section->ReadU64(&m));
  MULTIEM_RETURN_IF_ERROR(config_section->ReadU64(&m0));
  MULTIEM_RETURN_IF_ERROR(config_section->ReadU64(&ef_construction));
  MULTIEM_RETURN_IF_ERROR(config_section->ReadU64(&ef_search));
  MULTIEM_RETURN_IF_ERROR(config_section->ReadU64(&config.seed));
  MULTIEM_RETURN_IF_ERROR(config_section->ReadU64(&retired));
  if (artifact.version() >= 2) {
    // v2 exists only for quantized indexes; an in-range mode of kNone would
    // mean a writer bug, so it is rejected like an out-of-range byte.
    uint64_t quant_mode, rerank_factor;
    MULTIEM_RETURN_IF_ERROR(config_section->ReadU64(&quant_mode));
    MULTIEM_RETURN_IF_ERROR(config_section->ReadU64(&rerank_factor));
    if (quant_mode == static_cast<uint64_t>(Quantization::kNone) ||
        quant_mode > static_cast<uint64_t>(Quantization::kFp16)) {
      return util::Status::InvalidArgument(
          "hnsw artifact: v2 file with invalid quantization mode " +
          std::to_string(quant_mode));
    }
    config.quantization = static_cast<Quantization>(quant_mode);
    config.rerank_factor = rerank_factor;
  }
  MULTIEM_RETURN_IF_ERROR(config_section->ExpectExhausted());
  // Degree caps: every slab-size expectation below multiplies node counts
  // by m0+1 / m+1, so absurd degrees from a crafted file must be rejected
  // before any arithmetic can wrap (2^20 is far above any useful M).
  constexpr uint64_t kMaxDegree = uint64_t{1} << 20;
  if (m < 2 || m > kMaxDegree || m0 < m || m0 > kMaxDegree) {
    return util::Status::InvalidArgument(
        "hnsw artifact: implausible link degrees m=" + std::to_string(m) +
        " m0=" + std::to_string(m0));
  }
  config.m = m;
  config.m0 = m0;
  config.ef_construction = ef_construction;
  config.ef_search = ef_search;

  // The constructor re-derives the clamped knobs and strides; Save wrote the
  // post-clamp config, so construction is idempotent and the strides below
  // match the saved slabs.
  auto index = std::make_unique<HnswIndex>(dim, static_cast<Metric>(metric_byte),
                                           config);

  auto rng = artifact.Section("rng");
  if (!rng.ok()) return rng.status();
  std::vector<uint64_t> rng_state;
  MULTIEM_RETURN_IF_ERROR(rng->ReadU64Array(&rng_state));
  MULTIEM_RETURN_IF_ERROR(rng->ExpectExhausted());
  if (rng_state.size() != 4) {
    return util::Status::InvalidArgument(
        "hnsw artifact: rng state has " + std::to_string(rng_state.size()) +
        " words, want 4");
  }
  index->level_rng_.set_state(
      {rng_state[0], rng_state[1], rng_state[2], rng_state[3]});

  // Each slab binds as a zero-copy view straight onto its loaded section —
  // the section's heap block or the mapped file, pinned by the view — or,
  // where alignment forbids that, is copied into its member
  // (ByteReader::ReadArrayCow picks per slab). Either way it is validated
  // in place; a failed check discards the half-built index.
  auto vectors = artifact.Section("vectors");
  if (!vectors.ok()) return vectors.status();
  MULTIEM_RETURN_IF_ERROR(vectors->ReadArrayCow(&index->vectors_));
  MULTIEM_RETURN_IF_ERROR(vectors->ExpectExhausted());
  // Division form, not `num_nodes * dim`: a crafted dim near 2^64 must not
  // wrap the product into agreeing with an empty payload.
  if (index->vectors_.size() % dim != 0 ||
      index->vectors_.size() / dim != num_nodes) {
    return util::Status::InvalidArgument(
        "hnsw artifact: vector payload holds " +
        std::to_string(index->vectors_.size()) + " floats, header claims " +
        std::to_string(num_nodes) + " nodes of dim " + std::to_string(dim));
  }

  auto levels = artifact.Section("levels");
  if (!levels.ok()) return levels.status();
  MULTIEM_RETURN_IF_ERROR(levels->ReadArrayCow(&index->node_level_));
  MULTIEM_RETURN_IF_ERROR(levels->ExpectExhausted());
  const auto& node_levels = index->node_level_;
  if (node_levels.size() != num_nodes) {
    return util::Status::InvalidArgument(
        "hnsw artifact: level array holds " +
        std::to_string(node_levels.size()) + " entries, want " +
        std::to_string(num_nodes));
  }
  for (int32_t level : node_levels) {
    // A top layer above 63 cannot arise from the geometric draw (P(level
    // >= 64) is ~m^-64); rejecting it also keeps the upper-slab offset
    // accumulation below safely inside 64 bits.
    if (level < 0 || level > 63) {
      return util::Status::InvalidArgument(
          "hnsw artifact: implausible node level " + std::to_string(level));
    }
  }

  auto links0 = artifact.Section("links0");
  if (!links0.ok()) return links0.status();
  MULTIEM_RETURN_IF_ERROR(links0->ReadArrayCow(&index->level0_links_));
  MULTIEM_RETURN_IF_ERROR(links0->ExpectExhausted());
  if (index->level0_links_.size() % index->level0_stride_ != 0 ||
      index->level0_links_.size() / index->level0_stride_ != num_nodes) {
    return util::Status::InvalidArgument(
        "hnsw artifact: layer-0 slab holds " +
        std::to_string(index->level0_links_.size()) + " words, want " +
        std::to_string(num_nodes) + " blocks of " +
        std::to_string(index->level0_stride_));
  }

  auto offsets_section = artifact.Section("upper_offsets");
  if (!offsets_section.ok()) return offsets_section.status();
  MULTIEM_RETURN_IF_ERROR(
      offsets_section->ReadArrayCow(&index->upper_offset_));
  MULTIEM_RETURN_IF_ERROR(offsets_section->ExpectExhausted());
  auto upper_section = artifact.Section("upper_links");
  if (!upper_section.ok()) return upper_section.status();
  MULTIEM_RETURN_IF_ERROR(upper_section->ReadArrayCow(&index->upper_links_));
  MULTIEM_RETURN_IF_ERROR(upper_section->ExpectExhausted());
  // Every read below goes through const references: a non-const access to
  // a CowSlab view copies it into a private slab (and, from the verify
  // pool, from several threads at once).
  const auto& level0_links = index->level0_links_;
  const auto& upper_offsets = index->upper_offset_;
  const auto& upper_links = index->upper_links_;

  // Recompute the per-node upper-slab offsets from the level array; they are
  // fully determined by it, so a mismatch means an inconsistent file.
  if (upper_offsets.size() != num_nodes) {
    return util::Status::InvalidArgument(
        "hnsw artifact: upper-offset array holds " +
        std::to_string(upper_offsets.size()) + " entries, want " +
        std::to_string(num_nodes));
  }
  uint64_t expected_offset = 0;
  for (size_t i = 0; i < num_nodes; ++i) {
    if (upper_offsets[i] != expected_offset) {
      return util::Status::InvalidArgument(
          "hnsw artifact: upper-slab offset of node " + std::to_string(i) +
          " is " + std::to_string(upper_offsets[i]) + ", want " +
          std::to_string(expected_offset));
    }
    expected_offset +=
        static_cast<uint64_t>(node_levels[i]) * index->upper_stride_;
  }
  if (upper_links.size() != expected_offset) {
    return util::Status::InvalidArgument(
        "hnsw artifact: upper slab holds " +
        std::to_string(upper_links.size()) + " words, want " +
        std::to_string(expected_offset));
  }

  // Per-link semantic validation. Skipped entirely under a structural-only
  // open (the caller vouched for the bytes; see ArtifactOpenOptions), and
  // parallelized over the open's verify pool otherwise — at millions of
  // nodes this sweep, not the I/O, dominates reload time.
  if (artifact.deep_verify()) {
    auto check_node = [&](size_t i) -> util::Status {
      MULTIEM_RETURN_IF_ERROR(ValidateLinkSlab(
          level0_links.data() + i * index->level0_stride_,
          /*num_blocks=*/1, index->level0_stride_, num_nodes, "layer-0"));
      // Upper blocks carry a (node, level) identity, and a link on level l
      // must target a node that participates in level l — GreedySearchLayer
      // follows it at that same level, and a node with a lower top layer has
      // no block there, so an unchecked edge would walk past its slab
      // (ValidateLinkSlab alone cannot see this; it only knows ids exist at
      // layer 0).
      for (int l = 1; l <= node_levels[i]; ++l) {
        const uint32_t* block = upper_links.data() + upper_offsets[i] +
                                size_t(l - 1) * index->upper_stride_;
        if (block[0] >= index->upper_stride_) {
          return util::Status::InvalidArgument(
              "hnsw artifact: upper block of node " + std::to_string(i) +
              " claims " + std::to_string(block[0]) + " links, capacity is " +
              std::to_string(index->upper_stride_ - 1));
        }
        for (uint32_t j = 1; j <= block[0]; ++j) {
          if (block[j] >= num_nodes || node_levels[block[j]] < l) {
            return util::Status::InvalidArgument(
                "hnsw artifact: node " + std::to_string(i) +
                " links to node " + std::to_string(block[j]) + " on level " +
                std::to_string(l) + ", which that node does not reach");
          }
        }
      }
      return util::Status::Ok();
    };
    // One status per span of nodes, written only by the task that checks
    // the span, so the error reported is the first bad node's.
    constexpr size_t kNodesPerCheck = 4096;
    std::vector<util::Status> checks((num_nodes + kNodesPerCheck - 1) /
                                     kNodesPerCheck);
    util::ParallelFor(
        artifact.load_pool(), checks.size(),
        [&](size_t c) {
          const size_t end = std::min<size_t>(num_nodes, (c + 1) * kNodesPerCheck);
          for (size_t i = c * kNodesPerCheck; i < end && checks[c].ok(); ++i) {
            checks[c] = check_node(i);
          }
        },
        /*min_block_size=*/1);
    for (const util::Status& status : checks) {
      MULTIEM_RETURN_IF_ERROR(status);
    }
  }

  // Entry point: empty index <=> empty state; otherwise the stored node must
  // exist and participate in the stored level, or the greedy descent would
  // read past its slab.
  if (num_nodes == 0) {
    if (entry_state != kEmptyEntryState) {
      return util::Status::InvalidArgument(
          "hnsw artifact: empty index with a non-empty entry point");
    }
  } else {
    const int entry_level = EntryLevel(entry_state);
    const uint32_t entry_node = EntryNode(entry_state);
    if (entry_level < 0 || entry_node >= num_nodes ||
        entry_level > node_levels[entry_node]) {
      return util::Status::InvalidArgument(
          "hnsw artifact: entry point (node " + std::to_string(entry_node) +
          ", level " + std::to_string(entry_level) +
          ") is inconsistent with the level array");
    }
  }

  // Quantized plane last: all counts above are already validated, so the
  // store's row/dim cross-checks run against trusted values.
  if (config.quantization != Quantization::kNone) {
    MULTIEM_RETURN_IF_ERROR(index->quant_.LoadSections(
        artifact, config.quantization, dim, num_nodes));
  }

  index->num_nodes_ = num_nodes;
  index->entry_state_ = entry_state;
  return index;
}

}  // namespace multiem::ann
