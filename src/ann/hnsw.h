#ifndef MULTIEM_ANN_HNSW_H_
#define MULTIEM_ANN_HNSW_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "ann/index.h"
#include "ann/quant.h"
#include "util/memory.h"
#include "util/rng.h"

namespace multiem::util {
class ArtifactReader;  // util/io.h; only referenced by Load's signature
}  // namespace multiem::util

namespace multiem::ann {

/// Construction/search knobs of the HNSW graph; defaults follow common
/// hnswlib practice, which is what the paper used in its merging phase.
struct HnswConfig {
  /// Max out-degree on layers >= 1 (the paper/hnswlib "M").
  size_t m = 16;
  /// Max out-degree on layer 0 (hnswlib uses 2*M).
  size_t m0 = 32;
  /// Beam width while inserting.
  size_t ef_construction = 200;
  /// Default beam width while searching; raised to k when k is larger.
  size_t ef_search = 64;
  /// Seed for the level generator (layer assignment is randomized).
  uint64_t seed = 0x48435753ULL;  // "HNSW"
  /// Vector storage for the candidate scan. kNone keeps the fp32-only
  /// behavior (and the v1 on-disk format). int8/fp16 quantize on insert and
  /// run the beam search on the codes; construction and the final rerank
  /// always use the retained fp32 originals, so the graph is bit-identical
  /// to an unquantized build with the same seed.
  Quantization quantization = Quantization::kNone;
  /// Quantized searches re-score the top rerank_factor * k candidates with
  /// exact fp32 distances before truncating to k (the beam width is raised
  /// to at least rerank_factor * k). Ignored when unquantized; 0 behaves
  /// as 1 (no widening, rerank of the top k only).
  size_t rerank_factor = 4;
};

/// Hierarchical Navigable Small World index (Malkov & Yashunin, TPAMI 2020),
/// implemented from scratch — see DESIGN.md.
///
/// Structure: every vector is a node assigned a top layer drawn from a
/// geometric-like distribution (level = floor(-ln(U) * 1/ln(M))). Layers > 0
/// form progressively sparser navigable graphs used for greedy descent;
/// layer 0 holds all nodes. Insertion runs a beam search per layer
/// (ef_construction candidates) and connects the node to neighbors chosen by
/// the diversity heuristic (Algorithm 4 of the HNSW paper); over-full
/// adjacency lists are re-pruned with the same heuristic.
///
/// Memory layout: adjacency lives in flat fixed-capacity slabs, not nested
/// vectors. Layer 0 is one contiguous, cache-line-aligned uint32 array with
/// m0+1 slots per node ([count, links...]); the sparse upper layers share a
/// second compact slab with m+1 slots per (node, layer) pair, addressed
/// through a per-node offset. One hop in the hottest loop is therefore one
/// pointer-free block read, and the search loops prefetch the next
/// neighbor's vector and link block while the current distance is computed.
///
/// Cosine metric: vectors are L2-normalized on insert and queries normalized
/// per call, so distance reduces to 1 - dot.
///
/// Insertion: Add, AddBatch and CloneAndAdd take one path. Rows go in as
/// rounds whose size depends only on the graph size: one row per round
/// below 1,024 nodes (the classic sequential insert), then min(rows left,
/// 256, nodes / 50). In a round, each new node searches the graph as the
/// round found it, adds the round's earlier rows to its beam at exact
/// distances (keeping the ef_construction nearest), and writes only its own
/// forward links. The round's back edges are then applied in (target,
/// level, source) order, each receiving node by one task, and the highest
/// new level becomes the entry point (ties to the lowest id). A pool fans
/// both steps out without changing the graph: no pool and a pool of any
/// size save the same bytes. This is the batch-synchronous build of
/// ParlayANN (Manohar et al., PPoPP 2024).
///
/// Thread-safety: Search is const and safe to call concurrently with other
/// searches (per-call scratch comes from an internal pool). Add, AddBatch
/// and the other writers must not overlap with Search or with each other on
/// the same index.
///
/// Serving under readers: rather than weakening the no-overlap rule above,
/// concurrent serving goes through CloneAndAdd() — a deep copy that only
/// reads (safe under concurrent Search), sized for the batch, into which the
/// writer inserts privately before publishing it with an atomic pointer
/// swap. core::Matcher is the canonical user of that protocol; readers of
/// the old graph are never raced.
class HnswIndex : public VectorIndex {
 public:
  HnswIndex(size_t dim, Metric metric, HnswConfig config = {});
  ~HnswIndex() override;

  void Add(std::span<const float> vec) override;

  using VectorIndex::AddBatch;
  void AddBatch(const embed::EmbeddingMatrix& vectors,
                util::ThreadPool* pool) override;

  std::vector<Neighbor> Search(std::span<const float> query,
                               size_t k) const override;

  /// Instrumented search: `ef` = 0 uses config().ef_search (always raised to
  /// k); `stats` (optional) receives how many nodes this query expanded and
  /// how many distances it computed. The counters cost two increments per
  /// hop and are always maintained, so this is exactly Search plus the
  /// readout. Thread-safe like Search.
  std::vector<Neighbor> SearchWithStats(std::span<const float> query, size_t k,
                                        size_t ef,
                                        SearchStats* stats) const override;

  /// Deep copy: flat slabs, vector payload, entry word, and the level-RNG
  /// state (the clone draws the same future levels the original would),
  /// with an empty scratch pool. Every slab of the copy is owned, also where
  /// this index's are views of a loaded artifact. Only reads this index, so
  /// it is safe concurrently with Search — the serving layer's
  /// insert-under-readers protocol (see index.h) builds on this.
  std::unique_ptr<VectorIndex> Clone() const override;

  /// Clone() with room for `rows`, then AddBatch(rows, pool) into the copy:
  /// each slab is copied once, at its size after the batch. The result is
  /// the one Clone() followed by AddBatch() gives, Save byte for Save byte.
  std::unique_ptr<VectorIndex> CloneAndAdd(
      const embed::EmbeddingMatrix& rows,
      util::ThreadPool* pool) const override;

  size_t size() const override { return num_nodes_; }
  size_t dim() const override { return dim_; }
  /// Exact bytes of payload held (flat slabs make this a size sum, not a
  /// capacity estimate). Includes the quantized code plane when present.
  size_t SizeBytes() const override;
  /// SizeBytes() split into fp32 payload / quantized codes / graph.
  MemoryBreakdown MemoryUsage() const override;
  /// Heap bytes the slabs own privately, by capacity: MemoryUsage().total()
  /// when every slab is owned and exactly sized, less while slabs are views
  /// of a loaded artifact, more while they hold room to grow.
  size_t OwnedBytes() const;
  Metric metric() const override { return metric_; }

  /// The quantized code plane (empty unless config().quantization != kNone);
  /// exposed for tests and memory accounting.
  const QuantizedStore& quantized_store() const { return quant_; }

  /// Highest layer currently in use (-1 when empty); exposed for tests.
  int max_level() const { return EntryLevel(entry_state_); }

  const HnswConfig& config() const { return config_; }

  /// Artifact kind tag ("hnsw") — selects the loader in index_io.h.
  static constexpr std::string_view kKind = "hnsw";
  std::string_view kind() const override { return kKind; }

  /// Persists the graph to `path` as a MEMINDEX artifact: config, the flat
  /// link slabs and vector payload near-verbatim, the entry-point word, and
  /// the level-generator state (docs/FORMATS.md has the byte-level spec).
  /// A loaded index answers Search identically to the saved one, and
  /// subsequent Add calls draw the same levels the original would have
  /// (the RNG state round-trips). Must not overlap with writes on the same
  /// index; concurrent Search is fine (Save only reads).
  util::Status Save(const std::string& path) const override;

  /// Reconstructs an index from an opened, checksum-validated MEMINDEX
  /// artifact (usually via ann::LoadVectorIndex, which dispatches here on
  /// the "hnsw" kind tag). Rejects internally-inconsistent files — slab or
  /// count mismatches, out-of-range links, a bad entry point — with
  /// InvalidArgument rather than risking out-of-bounds traversal.
  static util::Result<std::unique_ptr<HnswIndex>> Load(
      const util::ArtifactReader& artifact);

 private:
  /// Reusable per-search working set (visited stamps, the two beam heaps,
  /// and the insertion buffers), pooled so neither Search nor Add allocates
  /// per call.
  struct SearchScratch;
  class ScratchLease;

  /// Entry point and top level packed into one word:
  /// bits [32,64) = level + 1 (0 = empty index), bits [0,32) = node id.
  static constexpr uint64_t kEmptyEntryState = 0;
  static uint64_t PackEntryState(int level, uint32_t node) {
    return (static_cast<uint64_t>(level + 1) << 32) | node;
  }
  static int EntryLevel(uint64_t state) {
    return static_cast<int>(state >> 32) - 1;
  }
  static uint32_t EntryNode(uint64_t state) {
    return static_cast<uint32_t>(state);
  }

  /// Flat link block of `node` on `level`: block[0] = count, block[1..]
  /// = neighbor ids; capacity m0 (level 0) or m (upper levels).
  const uint32_t* LinkBlock(uint32_t node, int level) const {
    if (level == 0) return level0_links_.data() + size_t{node} * level0_stride_;
    return upper_links_.data() + upper_offset_[node] +
           size_t(level - 1) * upper_stride_;
  }
  uint32_t* MutableLinkBlock(uint32_t node, int level) {
    return const_cast<uint32_t*>(LinkBlock(node, level));
  }

  /// Distance from `query` (already normalized for cosine) to stored node,
  /// always through the fp32 originals (construction and rerank path).
  float NodeDistance(std::span<const float> query, uint32_t node) const;

  /// Distance the traversal loops use: the quantized approximation when the
  /// scratch carries an active quant query context (set up by
  /// SearchWithStats), NodeDistance otherwise (inserts always take fp32).
  float QueryDistance(std::span<const float> query, uint32_t node,
                      const SearchScratch& scratch) const;

  std::span<const float> NodeVector(uint32_t node) const {
    return std::span<const float>(vectors_.data() + size_t{node} * dim_, dim_);
  }

  /// Draws a node's top level from `rng`: floor(-ln(U) * 1/ln(M)).
  int DrawLevel(util::Rng& rng) const;

  /// Size of upper_links_ after the next `rows` inserts: the levels they
  /// will draw, previewed on a copy of the level generator.
  size_t UpperLinksAfter(size_t rows) const;

  /// Materializes private copies of any slab still backed by a mapped
  /// artifact (see the member comment below); called by every mutating
  /// entry point before the first write.
  void EnsureOwnedSlabs();

  /// Gives every growable slab room for `rows` more inserts, in one
  /// allocation each (a view slab materializes at that capacity), so the
  /// inserts move no slab.
  void ReserveForInserts(size_t rows);

  /// The copy behind Clone and CloneAndAdd: owned slabs with room for
  /// `rows` more inserts, each made in one allocation.
  std::unique_ptr<HnswIndex> CopyWithRoom(size_t rows) const;

  /// Appends the vector (normalized for cosine), draws the node's level, and
  /// grows the link slabs (zero-filled blocks). AddBatch registers the whole
  /// batch before the first round, so slab and vector addresses are stable
  /// while rounds run.
  uint32_t RegisterNode(std::span<const float> vec);

  /// Links the registered nodes [first, size()) into the graph, round by
  /// round (see the class comment), fanning each round out across `pool`.
  void InsertRounds(uint32_t first, util::ThreadPool* pool);

  /// Writes `node`'s forward links on every level it reaches: its candidates
  /// are the ef_construction nearest of the beam of a descent from `entry`
  /// over the nodes below `round_begin` and of the round's rows
  /// [round_begin, node), scored exactly. Reads no block of a round row and
  /// writes only `node`'s.
  void LinkForward(uint32_t node, uint32_t round_begin, uint64_t entry,
                   SearchScratch& scratch);

  /// Greedy hill-climb on `level` starting at `entry`; returns the closest
  /// node found (used to descend through the upper layers).
  uint32_t GreedySearchLayer(std::span<const float> query, uint32_t entry,
                             int level, SearchScratch& scratch) const;

  /// Beam search on `level` with beam width `ef`; leaves up to `ef`
  /// (node, distance) pairs in scratch.found, sorted ascending by
  /// (distance, id).
  void SearchLayer(std::span<const float> query, uint32_t entry, size_t ef,
                   int level, SearchScratch& scratch) const;

  /// HNSW Algorithm 4: keeps candidates that are closer to the query than to
  /// every already-kept neighbor (diversity pruning), up to `max_count`,
  /// then backfills with the nearest rejected candidates (single merge-walk;
  /// `selected` is always a subsequence of `candidates` in order).
  /// Candidates must be sorted ascending by distance.
  void SelectNeighbors(const std::vector<Neighbor>& candidates,
                       size_t max_count, std::vector<uint32_t>& selected) const;

  /// Adds the back-edge neighbor -> node on `level`, re-pruning neighbor's
  /// block with the diversity heuristic when it is full (the old
  /// ShrinkLinks, now at fixed capacity).
  void ConnectReverse(uint32_t neighbor, uint32_t node, int level,
                      SearchScratch& scratch);

  SearchScratch* AcquireScratch() const;
  void ReleaseScratch(SearchScratch* scratch) const;

  size_t dim_;
  Metric metric_;
  HnswConfig config_;
  double level_lambda_;  // 1 / ln(M)
  util::Rng level_rng_;
  size_t level0_stride_;  // m0 + 1
  size_t upper_stride_;   // m + 1

  size_t num_nodes_ = 0;
  // The flat slabs are copy-on-write: built in place (owned, cache-aligned)
  // by Add/AddBatch, or bound as zero-copy views over the loaded artifact
  // sections (heap blocks or a mapping) by Load. Any mutating entry point calls EnsureOwnedSlabs() first, so the
  // search loops (including the MutableLinkBlock const_cast) only ever write
  // owned memory.
  util::CowSlab<float, util::AlignedAllocator<float>> vectors_;  // row-major
  util::CowSlab<uint32_t, util::AlignedAllocator<uint32_t>>
      level0_links_;  // [node * (m0+1)]
  util::CowSlab<uint32_t, util::AlignedAllocator<uint32_t>>
      upper_links_;  // per-node level slabs
  util::CowSlab<uint64_t> upper_offset_;  // node -> first upper_links_ block
  util::CowSlab<int32_t> node_level_;
  /// Quantized codes of every stored vector (encoded by RegisterNode after
  /// cosine normalization); empty when config_.quantization == kNone.
  QuantizedStore quant_;
  uint64_t entry_state_ = kEmptyEntryState;

  mutable std::mutex scratch_mu_;
  mutable std::vector<std::unique_ptr<SearchScratch>> scratch_pool_;
};

}  // namespace multiem::ann

#endif  // MULTIEM_ANN_HNSW_H_
