// Concurrent-serving tests for core::Matcher's epoch-swap contract:
// MatchRecords readers hammering a session while an AddTable writer loops
// must always observe exactly one published epoch (never a torn mix of
// entity table, slot map, and index), batched MatchRecords must equal the
// sequential path bitwise, Snapshots must pin their epoch for id
// resolution, and the MatchObserver hooks must fire on the calling thread
// in row order. The *Concurrent* tests double as the TSan stress suite
// (.github/workflows/ci.yml runs `serve_test --gtest_filter='*Concurrent*'`
// under -DMULTIEM_SANITIZE=thread).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/artifact.h"
#include "core/matcher.h"
#include "core/pipeline.h"
#include "table/schema.h"
#include "table/table.h"
#include "util/thread_pool.h"

namespace multiem {
namespace {

using core::AddTableOptions;
using core::Matcher;
using core::MatchObserver;
using core::MatchOptions;
using core::MatchQueryStats;
using core::MultiEmConfig;
using core::MultiEmPipeline;
using core::PipelineBuilder;
using core::PipelineResult;
using core::RecordMatch;
using core::RunContext;
using table::Schema;
using table::Table;

std::string TempPath(const std::string& name) {
  std::string path = ::testing::TempDir() + "multiem_serve_" + name;
  std::filesystem::remove_all(path);
  return path;
}

// Same demo corpus family as persist_test: three overlapping product tables.
std::vector<Table> BaseTables() {
  Schema schema({"title", "color"});
  std::vector<Table> tables;
  {
    Table t("shop_a", schema);
    t.AppendRow({"apple iphone 8 plus 64gb", "silver"}).CheckOk();
    t.AppendRow({"samsung galaxy s9 dual sim 64gb", "black"}).CheckOk();
    t.AppendRow({"google pixel 3 xl 128gb", "white"}).CheckOk();
    t.AppendRow({"sony wh-1000xm3 wireless headphones", "black"}).CheckOk();
    tables.push_back(std::move(t));
  }
  {
    Table t("shop_b", schema);
    t.AppendRow({"apple iphone 8 plus 5.5 64gb unlocked", "silver"}).CheckOk();
    t.AppendRow({"galaxy s9 duos 64 gb by samsung", "midnight black"})
        .CheckOk();
    t.AppendRow({"nintendo switch neon console", "neon"}).CheckOk();
    tables.push_back(std::move(t));
  }
  {
    Table t("shop_c", schema);
    t.AppendRow({"apple iphone 8 plus 14 cm 64 gb ios 11", "silver"}).CheckOk();
    t.AppendRow({"pixel 3 xl google smartphone 128 gb", "clearly white"})
        .CheckOk();
    tables.push_back(std::move(t));
  }
  return tables;
}

// The writer's ingest sequence: each table mixes one row that merges into
// an existing group (retiring a slot on the incremental path) with one
// novel row (a fresh insert), so every epoch exercises both transitions.
std::vector<Table> IngestTables() {
  Schema schema({"title", "color"});
  std::vector<Table> tables;
  {
    Table t("shop_d", schema);
    t.AppendRow({"apple iphone 8 plus 64 gb", "silver"}).CheckOk();
    t.AppendRow({"dyson v11 cordless vacuum", "purple"}).CheckOk();
    tables.push_back(std::move(t));
  }
  {
    Table t("shop_e", schema);
    t.AppendRow({"google pixel 3 xl 128 gb", "white"}).CheckOk();
    t.AppendRow({"breville espresso machine", "steel"}).CheckOk();
    tables.push_back(std::move(t));
  }
  {
    Table t("shop_f", schema);
    t.AppendRow({"sony wh-1000xm3 headphones wireless", "black"}).CheckOk();
    t.AppendRow({"kindle paperwhite 8gb ereader", "black"}).CheckOk();
    tables.push_back(std::move(t));
  }
  {
    Table t("shop_g", schema);
    t.AppendRow({"dyson v11 vacuum cordless", "purple"}).CheckOk();
    t.AppendRow({"lego millennium falcon 75192", "grey"}).CheckOk();
    tables.push_back(std::move(t));
  }
  return tables;
}

Table QueryTable() {
  Table q("queries", Schema({"title", "color"}));
  q.AppendRow({"apple iphone 8 plus 64 gb", "silver"}).CheckOk();
  q.AppendRow({"google pixel 3 xl", "white"}).CheckOk();
  q.AppendRow({"dyson v11 vacuum", "purple"}).CheckOk();
  q.AppendRow({"sony wireless headphones wh-1000xm3", "black"}).CheckOk();
  return q;
}

MultiEmConfig ServingConfig() {
  MultiEmConfig config;
  config.sample_ratio = 1.0;
  config.m = 0.72f;
  config.eps = 1.2f;
  return config;
}

// Builds the base session once per binary run and saves it, so every test
// (and the serial reference replay vs the concurrent replay) starts from a
// bit-identical session.
const std::string& SharedArtifactDir() {
  static const std::string dir = [] {
    std::string path = TempPath("shared_artifact");
    auto pipeline = PipelineBuilder(ServingConfig()).Build();
    pipeline.status().CheckOk();
    RunContext ctx;
    ctx.build_matcher = true;
    PipelineResult result;
    pipeline->Run(BaseTables(), ctx, &result).CheckOk();
    result.matcher->Save(path).CheckOk();
    return path;
  }();
  return dir;
}

Matcher LoadSession() {
  auto matcher = MultiEmPipeline::LoadArtifact(SharedArtifactDir());
  matcher.status().CheckOk();
  return std::move(*matcher);
}

// The full per-epoch answer set a reader may legally observe: the match
// results of the fixed query table plus, for every hit, the resolved member
// list — so a torn read of any layer (index, slot map, entity table) is
// detectable, not just a torn top-1.
struct EpochAnswers {
  std::vector<std::vector<RecordMatch>> matches;
  std::vector<std::vector<std::vector<table::EntityId>>> members;
};

EpochAnswers AnswersOf(const Matcher::Snapshot& snapshot, const Table& queries,
                       const MatchOptions& options) {
  EpochAnswers answers;
  auto matches = snapshot.MatchRecords(queries, options);
  matches.status().CheckOk();
  answers.matches = std::move(*matches);
  answers.members.resize(answers.matches.size());
  for (size_t row = 0; row < answers.matches.size(); ++row) {
    for (const RecordMatch& hit : answers.matches[row]) {
      answers.members[row].push_back(snapshot.item_members(hit.item));
    }
  }
  return answers;
}

// ------------------------------------------------- concurrency stress --

// N reader threads loop snapshot+MatchRecords+resolve while one writer
// applies the ingest sequence. AddTable is deterministic, so replaying the
// identical sequence serially on a second copy of the session yields the
// exact answer set of every epoch; each concurrent read must then equal
// the serial answers of the epoch its snapshot pinned — pre- or
// post-swap, never a mix.
TEST(ServeConcurrentTest, ReadersNeverObserveTornStateUnderAddTable) {
  const Table queries = QueryTable();
  MatchOptions options;
  options.k = 2;

  // Serial reference replay.
  std::vector<EpochAnswers> expected;
  {
    Matcher reference = LoadSession();
    expected.push_back(AnswersOf(reference.snapshot(), queries, options));
    for (const Table& t : IngestTables()) {
      ASSERT_TRUE(reference.AddTable(t).ok());
      ASSERT_EQ(reference.epoch(), expected.size());
      expected.push_back(AnswersOf(reference.snapshot(), queries, options));
    }
  }

  // Concurrent replay of the same sequence on a fresh copy.
  Matcher live = LoadSession();
  std::atomic<bool> done{false};
  std::atomic<size_t> reads{0};
  std::atomic<size_t> post_swap_reads{0};
  const size_t kReaders = 4;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_relaxed)) {
        Matcher::Snapshot snapshot = live.snapshot();
        const uint64_t epoch = snapshot.epoch();
        ASSERT_LT(epoch, expected.size());
        const EpochAnswers seen = AnswersOf(snapshot, queries, options);
        EXPECT_EQ(seen.matches, expected[epoch].matches)
            << "epoch " << epoch << " answers torn";
        EXPECT_EQ(seen.members, expected[epoch].members)
            << "epoch " << epoch << " member resolution torn";
        reads.fetch_add(1, std::memory_order_relaxed);
        if (epoch > 0) {
          post_swap_reads.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  util::ThreadPool writer_pool(2);
  for (const Table& t : IngestTables()) {
    // Give readers a window on each epoch, including epoch 0.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    AddTableOptions add;
    add.pool = &writer_pool;
    ASSERT_TRUE(live.AddTable(t, add).ok());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  done.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(live.epoch(), IngestTables().size());
  EXPECT_GT(reads.load(), 0u);
  EXPECT_GT(post_swap_reads.load(), 0u)
      << "no reader ever sampled a post-swap epoch; stress window too short";
  // The final concurrent state answers exactly like the serial replay.
  EXPECT_EQ(AnswersOf(live.snapshot(), queries, options).matches,
            expected.back().matches);
}

// Readers that pinned a Snapshot before a swap keep getting the old
// epoch's answers from it even while (and after) writers retire that
// epoch — and batched reads through a pool race nothing in the writer.
TEST(ServeConcurrentTest, SnapshotsPinTheirEpochAcrossSwaps) {
  const Table queries = QueryTable();
  MatchOptions options;
  options.k = 2;

  Matcher live = LoadSession();
  const Matcher::Snapshot pinned = live.snapshot();
  const EpochAnswers before = AnswersOf(pinned, queries, options);

  util::ThreadPool pool(4);
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (size_t r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      MatchOptions batched = options;
      batched.pool = &pool;
      while (!done.load(std::memory_order_relaxed)) {
        const EpochAnswers seen = AnswersOf(pinned, queries, batched);
        EXPECT_EQ(seen.matches, before.matches);
        EXPECT_EQ(seen.members, before.members);
      }
    });
  }
  for (const Table& t : IngestTables()) {
    ASSERT_TRUE(live.AddTable(t).ok());
  }
  done.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(pinned.epoch(), 0u);
  EXPECT_EQ(live.epoch(), IngestTables().size());
  // The retired epoch still resolves identically through the pinned view.
  const EpochAnswers after = AnswersOf(pinned, queries, options);
  EXPECT_EQ(after.matches, before.matches);
  EXPECT_EQ(after.members, before.members);
}

// Save is a reader-plus-writer-mutex operation: saving while MatchRecords
// readers run and an AddTable writer loops must produce an artifact of
// exactly one epoch, which then loads and answers like that epoch.
TEST(ServeConcurrentTest, SaveUnderConcurrentReadersAndWriterIsOneEpoch) {
  const Table queries = QueryTable();
  MatchOptions options;
  options.k = 2;

  std::vector<EpochAnswers> expected;
  {
    Matcher reference = LoadSession();
    expected.push_back(AnswersOf(reference.snapshot(), queries, options));
    for (const Table& t : IngestTables()) {
      ASSERT_TRUE(reference.AddTable(t).ok());
      expected.push_back(AnswersOf(reference.snapshot(), queries, options));
    }
  }

  Matcher live = LoadSession();
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_relaxed)) {
      Matcher::Snapshot snapshot = live.snapshot();
      const EpochAnswers seen = AnswersOf(snapshot, queries, options);
      EXPECT_EQ(seen.matches, expected[snapshot.epoch()].matches);
    }
  });
  const std::string dir = TempPath("save_under_writers");
  std::thread saver([&] { EXPECT_TRUE(live.Save(dir).ok()); });
  for (const Table& t : IngestTables()) {
    ASSERT_TRUE(live.AddTable(t).ok());
  }
  saver.join();
  done.store(true, std::memory_order_relaxed);
  reader.join();

  auto reloaded = MultiEmPipeline::LoadArtifact(dir);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  const uint64_t saved_epoch_items = reloaded->num_items();
  bool matches_some_epoch = false;
  Matcher replay = LoadSession();
  for (size_t e = 0; e <= IngestTables().size(); ++e) {
    if (replay.num_items() == saved_epoch_items) {
      // Epochs are distinguishable by item count here (every ingest adds
      // exactly one net item); the artifact must answer like that epoch.
      auto got = reloaded->MatchRecords(queries, options);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(*got, expected[e].matches);
      matches_some_epoch = true;
      break;
    }
    if (e < IngestTables().size()) {
      ASSERT_TRUE(replay.AddTable(IngestTables()[e]).ok());
    }
  }
  EXPECT_TRUE(matches_some_epoch)
      << "saved artifact matches no published epoch";
}

// --------------------------------------------------- batched match path --

TEST(ServeBatchTest, BatchedMatchesSequentialExactly) {
  Matcher matcher = LoadSession();
  // A wider batch than the fan-out block size, so several pool tasks run.
  Table queries("queries", Schema({"title", "color"}));
  const std::vector<std::vector<std::string>> rows = {
      {"apple iphone 8 plus 64 gb", "silver"},
      {"iphone 8 plus apple 64gb", ""},
      {"google pixel 3 xl", "white"},
      {"pixel 3 xl 128 gb", "clearly white"},
      {"samsung galaxy s9 dual sim", "black"},
      {"galaxy s9 64 gb", "midnight black"},
      {"sony wh-1000xm3 headphones", "black"},
      {"wireless headphones sony", ""},
      {"nintendo switch console", "neon"},
      {"espresso machine deluxe", "red"},
      {"mechanical keyboard rgb", "black"},
      {"usb-c charging cable 2m", "white"},
  };
  for (const auto& row : rows) {
    queries.AppendRow(std::vector<std::string>(row)).CheckOk();
  }

  util::ThreadPool pool(4);
  for (size_t k : {1, 3}) {
    MatchOptions sequential;
    sequential.k = k;
    MatchOptions batched;
    batched.k = k;
    batched.pool = &pool;
    auto expect = matcher.MatchRecords(queries, sequential);
    ASSERT_TRUE(expect.ok()) << expect.status();
    auto got = matcher.MatchRecords(queries, batched);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, *expect) << "k=" << k;
  }
}

class RecordingObserver : public MatchObserver {
 public:
  void OnQueryMatched(size_t row, const MatchQueryStats& stats) override {
    rows.push_back(row);
    stats_per_row.push_back(stats);
  }
  void OnBatchMatched(size_t num_queries, double seconds) override {
    ++batches;
    batch_queries = num_queries;
    batch_seconds = seconds;
  }

  std::vector<size_t> rows;
  std::vector<MatchQueryStats> stats_per_row;
  size_t batches = 0;
  size_t batch_queries = 0;
  double batch_seconds = -1.0;
};

TEST(ServeBatchTest, ObserverFiresInRowOrderWithRealCounters) {
  Matcher matcher = LoadSession();
  const Table queries = QueryTable();
  util::ThreadPool pool(4);

  RecordingObserver observer;
  MatchOptions options;
  options.k = 2;
  options.pool = &pool;
  options.observer = &observer;
  auto matches = matcher.MatchRecords(queries, options);
  ASSERT_TRUE(matches.ok()) << matches.status();

  // One hook per row, fired in ascending row order, after the fan-out.
  ASSERT_EQ(observer.rows.size(), queries.num_rows());
  for (size_t row = 0; row < observer.rows.size(); ++row) {
    EXPECT_EQ(observer.rows[row], row);
    EXPECT_EQ(observer.stats_per_row[row].hits, (*matches)[row].size());
    // Searching a non-empty index touches at least one node and computes
    // at least one distance.
    EXPECT_GT(observer.stats_per_row[row].visited, 0u) << "row " << row;
    EXPECT_GT(observer.stats_per_row[row].distance_evals, 0u)
        << "row " << row;
  }
  EXPECT_EQ(observer.batches, 1u);
  EXPECT_EQ(observer.batch_queries, queries.num_rows());
  EXPECT_GE(observer.batch_seconds, 0.0);
}

TEST(ServeBatchTest, EfSearchOverrideChangesEffortNotContract) {
  Matcher matcher = LoadSession();
  const Table queries = QueryTable();

  RecordingObserver narrow_observer;
  MatchOptions narrow;
  narrow.k = 2;
  narrow.ef_search = 2;  // raised to k, minimal beam
  narrow.observer = &narrow_observer;
  auto narrow_matches = matcher.MatchRecords(queries, narrow);
  ASSERT_TRUE(narrow_matches.ok());

  RecordingObserver wide_observer;
  MatchOptions wide = narrow;
  wide.ef_search = 256;
  wide.observer = &wide_observer;
  auto wide_matches = matcher.MatchRecords(queries, wide);
  ASSERT_TRUE(wide_matches.ok());

  size_t narrow_evals = 0, wide_evals = 0;
  for (const auto& s : narrow_observer.stats_per_row) {
    narrow_evals += s.distance_evals;
  }
  for (const auto& s : wide_observer.stats_per_row) {
    wide_evals += s.distance_evals;
  }
  // A wider beam does strictly more work on this tiny index...
  EXPECT_GE(wide_evals, narrow_evals);
  // ... and at ef >> index size it is exhaustive, so hits are exact: each
  // query's top hit must be its true nearest item.
  for (size_t row = 0; row < wide_matches->size(); ++row) {
    ASSERT_FALSE((*wide_matches)[row].empty());
  }
}

// --------------------------------------------------------- ingest paths --

// The incremental index path retires slots of absorbed items; readers must
// filter them and never return a retired slot's stale centroid.
TEST(ServeIngestTest, MergingIngestRetiresSlotsAndStaysConsistent) {
  Matcher incremental = LoadSession();
  Matcher rebuild = LoadSession();
  size_t max_dead = 0;
  for (const Table& t : IngestTables()) {
    AddTableOptions inc;
    ASSERT_TRUE(incremental.AddTable(t, inc).ok());
    AddTableOptions reb;
    reb.rebuild_index = true;
    ASSERT_TRUE(rebuild.AddTable(t, reb).ok());
    // Epoch invariant: the index holds exactly one live slot per live item
    // plus the retired ones (tombstoned items carry no slot at all).
    const Matcher::Snapshot epoch = incremental.snapshot();
    EXPECT_EQ(epoch.index().size(),
              epoch.num_live_items() + epoch.dead_slots());
    max_dead = std::max(max_dead, epoch.dead_slots());
  }

  const Matcher::Snapshot inc_snap = incremental.snapshot();
  const Matcher::Snapshot reb_snap = rebuild.snapshot();
  // The merge itself is identical: same items, same members, same tuples.
  EXPECT_EQ(inc_snap.num_items(), reb_snap.num_items());
  EXPECT_EQ(incremental.Tuples().tuples(), rebuild.Tuples().tuples());
  // Every ingest above merges one row, so slots retire along the way...
  EXPECT_GT(max_dead, 0u);
  // ... until the 25% threshold compacts the index back to zero dead slots
  // (this sequence is sized to cross it on the last ingest); the rebuild
  // path never carries any.
  EXPECT_EQ(inc_snap.dead_slots(), 0u);
  EXPECT_EQ(reb_snap.dead_slots(), 0u);
  EXPECT_EQ(inc_snap.index().size(), inc_snap.num_live_items());

  // Every returned hit is a live item with in-range id and its distance to
  // the resolved centroid is the reported one (i.e. no stale-slot leak).
  const Table queries = QueryTable();
  MatchOptions options;
  options.k = 3;
  auto matches = inc_snap.MatchRecords(queries, options);
  ASSERT_TRUE(matches.ok()) << matches.status();
  auto reb_matches = reb_snap.MatchRecords(queries, options);
  ASSERT_TRUE(reb_matches.ok());
  for (size_t row = 0; row < matches->size(); ++row) {
    for (const RecordMatch& hit : (*matches)[row]) {
      ASSERT_LT(hit.item, inc_snap.num_items());
    }
    // Top hits agree with the rebuild session (both resolve the same
    // entity group, whatever slot it lives in).
    ASSERT_FALSE((*matches)[row].empty());
    ASSERT_FALSE((*reb_matches)[row].empty());
    EXPECT_EQ(inc_snap.item_members((*matches)[row][0].item),
              reb_snap.item_members((*reb_matches)[row][0].item))
        << "row " << row;
  }
}

// An ingest row that bridges two previously distinct items forces an
// old-old merge. The absorbed item must become a tombstone (empty members,
// no index slot) instead of being dropped, so every other item keeps its id
// across the epoch — and the tombstone must survive a save/load roundtrip
// (manifest format v3).
TEST(ServeIngestTest, BridgingIngestTombstonesAbsorbedItem) {
  Schema schema({"title"});
  std::vector<Table> sources;
  {
    Table t("src_a", schema);
    t.AppendRow({"silver laptop computer"}).CheckOk();
    t.AppendRow({"red apple fruit"}).CheckOk();
    t.AppendRow({"green forest tree"}).CheckOk();
    t.AppendRow({"loud concert music"}).CheckOk();
    t.AppendRow({"ancient stone castle"}).CheckOk();
    sources.push_back(std::move(t));
  }
  {
    Table t("src_b", schema);
    t.AppendRow({"fast notebook machine"}).CheckOk();
    t.AppendRow({"blue ocean wave"}).CheckOk();
    t.AppendRow({"warm desert sand"}).CheckOk();
    t.AppendRow({"quiet library book"}).CheckOk();
    t.AppendRow({"frozen winter lake"}).CheckOk();
    sources.push_back(std::move(t));
  }

  MultiEmConfig config;
  config.sample_ratio = 1.0;
  config.enable_attribute_selection = false;
  config.enable_pruning = false;
  config.index_name = "brute_force";
  config.k = 2;  // the bridge row must reach both of its neighbors
  config.m = 0.72f;
  auto pipeline = PipelineBuilder(config).Build();
  pipeline.status().CheckOk();
  RunContext ctx;
  ctx.build_matcher = true;
  PipelineResult result;
  pipeline->Run(std::move(sources), ctx, &result).CheckOk();
  Matcher& matcher = *result.matcher;

  // All token sets are disjoint, so nothing merges at build time.
  const Matcher::Snapshot before = matcher.snapshot();
  ASSERT_EQ(before.num_items(), 10u);
  ASSERT_EQ(before.num_tombstones(), 0u);
  std::vector<std::vector<table::EntityId>> members_before;
  for (size_t i = 0; i < before.num_items(); ++i) {
    members_before.push_back(before.item_members(i));
  }

  Table bridge("src_bridge", schema);
  bridge.AppendRow({"silver laptop computer fast notebook machine"}).CheckOk();
  ASSERT_TRUE(matcher.AddTable(bridge).ok());

  const Matcher::Snapshot after = matcher.snapshot();
  // No item was dropped and none appended: the bridge row joined a group.
  ASSERT_EQ(after.num_items(), 10u);
  EXPECT_EQ(after.num_tombstones(), 1u);
  EXPECT_EQ(after.num_live_items(), 9u);
  EXPECT_EQ(after.index().size(),
            after.num_live_items() + after.dead_slots());

  size_t tombstoned = after.num_items(), merged = after.num_items();
  for (size_t i = 0; i < after.num_items(); ++i) {
    const auto& members = after.item_members(i);
    if (members.empty()) {
      EXPECT_EQ(tombstoned, after.num_items()) << "two tombstones";
      tombstoned = i;
    } else if (members != members_before[i]) {
      EXPECT_EQ(merged, after.num_items()) << "two items changed";
      merged = i;
    }
  }
  ASSERT_LT(tombstoned, after.num_items());
  ASSERT_LT(merged, after.num_items());
  // The group lives at the smaller participating id; it unions both old
  // items' members plus the bridge row.
  EXPECT_LT(merged, tombstoned);
  EXPECT_EQ(after.item_members(merged).size(),
            members_before[merged].size() +
                members_before[tombstoned].size() + 1);
  // Every non-participant item kept its members at its old id.
  for (size_t i = 0; i < after.num_items(); ++i) {
    if (i == tombstoned || i == merged) continue;
    EXPECT_EQ(after.item_members(i), members_before[i]) << "item " << i;
  }

  // Queries resolve to the merged group and never surface the tombstone.
  Table queries("queries", schema);
  queries.AppendRow({"silver laptop computer"}).CheckOk();
  queries.AppendRow({"fast notebook machine"}).CheckOk();
  auto matches = after.MatchRecords(queries, /*k=*/3);
  ASSERT_TRUE(matches.ok()) << matches.status();
  for (const auto& row : *matches) {
    ASSERT_FALSE(row.empty());
    EXPECT_EQ(row[0].item, merged);
    for (const RecordMatch& hit : row) {
      EXPECT_NE(hit.item, tombstoned);
      EXPECT_FALSE(after.item_members(hit.item).empty());
    }
  }

  // The tombstone round-trips through the artifact (manifest v3) and the
  // reloaded session answers identically.
  const std::string dir = TempPath("tombstone_artifact");
  ASSERT_TRUE(matcher.Save(dir).ok());
  auto reloaded = MultiEmPipeline::LoadArtifact(dir);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  const Matcher::Snapshot replay = reloaded->snapshot();
  EXPECT_EQ(replay.num_items(), after.num_items());
  EXPECT_EQ(replay.num_tombstones(), after.num_tombstones());
  auto replay_matches = replay.MatchRecords(queries, /*k=*/3);
  ASSERT_TRUE(replay_matches.ok()) << replay_matches.status();
  EXPECT_EQ(*replay_matches, *matches);
}

// Under the default "hybrid" index, AddTable scans its merge exactly (a few
// live items against a few new rows is far below the cost rule), and a
// reloaded session, whose index factory comes from the saved index_name,
// chooses exactly as the session that saved it.
TEST(ServeIngestTest, HybridAddTableOnReloadedSessionEqualsInMemory) {
  const MultiEmConfig config = ServingConfig();
  ASSERT_EQ(config.index_name, "hybrid");
  auto pipeline = PipelineBuilder(config).Build();
  ASSERT_TRUE(pipeline.ok()) << pipeline.status();
  RunContext ctx;
  ctx.build_matcher = true;
  PipelineResult result;
  ASSERT_TRUE(pipeline->Run(BaseTables(), ctx, &result).ok());
  Matcher& live = *result.matcher;
  const std::string dir = TempPath("hybrid_reload");
  ASSERT_TRUE(live.Save(dir).ok());
  auto reloaded = MultiEmPipeline::LoadArtifact(dir);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  EXPECT_EQ(reloaded->config().index_name, "hybrid");

  const Table queries = QueryTable();
  MatchOptions options;
  options.k = 2;
  const size_t items_before = live.snapshot().num_items();
  size_t rows_added = 0;
  for (const Table& t : IngestTables()) {
    rows_added += t.num_rows();
    ASSERT_TRUE(live.AddTable(t).ok());
    ASSERT_TRUE(reloaded->AddTable(t).ok());
    const Matcher::Snapshot a = live.snapshot();
    const Matcher::Snapshot b = reloaded->snapshot();
    ASSERT_EQ(a.num_items(), b.num_items()) << "after " << t.name();
    EXPECT_EQ(a.num_tombstones(), b.num_tombstones()) << "after " << t.name();
    for (size_t i = 0; i < a.num_items(); ++i) {
      EXPECT_EQ(a.item_members(i), b.item_members(i)) << "item " << i;
    }
    const EpochAnswers want = AnswersOf(a, queries, options);
    const EpochAnswers got = AnswersOf(b, queries, options);
    EXPECT_EQ(got.matches, want.matches) << "after " << t.name();
    EXPECT_EQ(got.members, want.members) << "after " << t.name();
  }
  EXPECT_LT(live.snapshot().num_items(), items_before + rows_added)
      << "no ingested row merged into an existing item";
}

TEST(ServeIngestTest, EpochCountsAndSourceNamesAdvance) {
  Matcher matcher = LoadSession();
  EXPECT_EQ(matcher.epoch(), 0u);
  uint64_t expected_epoch = 0;
  for (const Table& t : IngestTables()) {
    ASSERT_TRUE(matcher.AddTable(t).ok());
    ++expected_epoch;
    EXPECT_EQ(matcher.epoch(), expected_epoch);
    EXPECT_EQ(matcher.source_names().back(), t.name());
  }
  // Re-ingesting a seen source name fails without publishing an epoch.
  EXPECT_FALSE(matcher.AddTable(IngestTables()[0]).ok());
  EXPECT_EQ(matcher.epoch(), expected_epoch);
}

// --------------------------------------------------- quantized serving --

MultiEmConfig QuantizedServingConfig() {
  MultiEmConfig config = ServingConfig();
  config.quantization = "int8";
  config.rerank_factor = 4;
  return config;
}

// Quantized analog of SharedArtifactDir: the same base corpus served
// through an int8 index with exact rerank, built and saved once per run.
const std::string& QuantizedArtifactDir() {
  static const std::string dir = [] {
    std::string path = TempPath("quantized_artifact");
    auto pipeline = PipelineBuilder(QuantizedServingConfig()).Build();
    pipeline.status().CheckOk();
    RunContext ctx;
    ctx.build_matcher = true;
    PipelineResult result;
    pipeline->Run(BaseTables(), ctx, &result).CheckOk();
    result.matcher->Save(path).CheckOk();
    return path;
  }();
  return dir;
}

Matcher LoadQuantizedSession() {
  auto matcher = MultiEmPipeline::LoadArtifact(QuantizedArtifactDir());
  matcher.status().CheckOk();
  return std::move(*matcher);
}

TEST(ServeQuantizedTest, ArtifactRoundTripKeepsQuantization) {
  // The quantization knobs survive the manifest round trip, and the
  // reloaded quantized session answers exactly like the one that saved it.
  Matcher matcher = LoadQuantizedSession();
  EXPECT_EQ(matcher.config().quantization, "int8");
  EXPECT_EQ(matcher.config().rerank_factor, 4u);

  auto pipeline = PipelineBuilder(QuantizedServingConfig()).Build();
  pipeline.status().CheckOk();
  RunContext ctx;
  ctx.build_matcher = true;
  PipelineResult result;
  pipeline->Run(BaseTables(), ctx, &result).CheckOk();

  const Table queries = QueryTable();
  MatchOptions options;
  options.k = 2;
  EXPECT_EQ(AnswersOf(matcher.snapshot(), queries, options).matches,
            AnswersOf(result.matcher->snapshot(), queries, options).matches);
}

// Counts the query rows whose resolved member sets agree between two
// sessions — the recall measure the quantized-vs-fp32 oracle tests gate on
// (members, not item ids, so it is robust to group renumbering).
size_t AgreeingRows(const EpochAnswers& a, const EpochAnswers& b) {
  EXPECT_EQ(a.members.size(), b.members.size());
  size_t agreeing = 0;
  for (size_t row = 0; row < a.members.size(); ++row) {
    if (a.members[row] == b.members[row]) ++agreeing;
  }
  return agreeing;
}

TEST(ServeQuantizedTest, FullRebuildMatchesFp32Oracle) {
  // One quantized Run over every table vs the fp32 oracle build of the same
  // corpus: the exact rerank keeps the served answers aligned.
  std::vector<Table> all_tables = BaseTables();
  for (Table& t : IngestTables()) all_tables.push_back(std::move(t));

  const auto build = [&](const MultiEmConfig& config) {
    auto pipeline = PipelineBuilder(config).Build();
    pipeline.status().CheckOk();
    RunContext ctx;
    ctx.build_matcher = true;
    PipelineResult result;
    pipeline->Run(all_tables, ctx, &result).CheckOk();
    return std::move(result.matcher);
  };
  auto quantized = build(QuantizedServingConfig());
  auto oracle = build(ServingConfig());

  const Table queries = QueryTable();
  MatchOptions options;
  options.k = 2;
  const EpochAnswers quant_answers =
      AnswersOf(quantized->snapshot(), queries, options);
  const EpochAnswers oracle_answers =
      AnswersOf(oracle->snapshot(), queries, options);
  EXPECT_GE(AgreeingRows(quant_answers, oracle_answers),
            (queries.num_rows() * 95 + 99) / 100);
}

TEST(ServeQuantizedTest, IncrementalAddTableMatchesFp32Oracle) {
  // The quantize-on-insert incremental path: after every AddTable the
  // quantized session must keep answering like the fp32 oracle session
  // replaying the identical ingest sequence.
  Matcher quantized = LoadQuantizedSession();
  Matcher oracle = LoadSession();
  const Table queries = QueryTable();
  MatchOptions options;
  options.k = 2;
  for (const Table& t : IngestTables()) {
    ASSERT_TRUE(quantized.AddTable(t).ok());
    ASSERT_TRUE(oracle.AddTable(t).ok());
    const EpochAnswers quant_answers =
        AnswersOf(quantized.snapshot(), queries, options);
    const EpochAnswers oracle_answers =
        AnswersOf(oracle.snapshot(), queries, options);
    EXPECT_GE(AgreeingRows(quant_answers, oracle_answers),
              (queries.num_rows() * 95 + 99) / 100)
        << "diverged after ingesting " << t.name();
  }
  EXPECT_EQ(quantized.epoch(), IngestTables().size());
}

// Runs under TSan via the CI *Concurrent* filter: quantized readers (both
// sequential and pool-batched MatchRecords) hammer the session while an
// AddTable writer quantizes-on-insert through epoch swaps.
TEST(ServeQuantizedConcurrentTest, QuantizedReadersStayConsistentUnderAddTable) {
  const Table queries = QueryTable();
  MatchOptions options;
  options.k = 2;

  // Serial reference replay on a second copy of the quantized session.
  std::vector<EpochAnswers> expected;
  {
    Matcher reference = LoadQuantizedSession();
    expected.push_back(AnswersOf(reference.snapshot(), queries, options));
    for (const Table& t : IngestTables()) {
      ASSERT_TRUE(reference.AddTable(t).ok());
      expected.push_back(AnswersOf(reference.snapshot(), queries, options));
    }
  }

  Matcher live = LoadQuantizedSession();
  std::atomic<bool> done{false};
  std::atomic<size_t> reads{0};
  util::ThreadPool reader_pool(2);
  const size_t kReaders = 3;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      // Odd readers batch through the shared pool, even readers go
      // sequential; both must see exactly one published epoch.
      MatchOptions read_options = options;
      if (r % 2 == 1) read_options.pool = &reader_pool;
      while (!done.load(std::memory_order_relaxed)) {
        Matcher::Snapshot snapshot = live.snapshot();
        const uint64_t epoch = snapshot.epoch();
        ASSERT_LT(epoch, expected.size());
        const EpochAnswers seen = AnswersOf(snapshot, queries, read_options);
        EXPECT_EQ(seen.matches, expected[epoch].matches)
            << "quantized epoch " << epoch << " answers torn (reader " << r
            << ")";
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  util::ThreadPool writer_pool(2);
  for (const Table& t : IngestTables()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    AddTableOptions add;
    add.pool = &writer_pool;
    ASSERT_TRUE(live.AddTable(t, add).ok());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  done.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(live.epoch(), IngestTables().size());
  EXPECT_GT(reads.load(), 0u);
  // Batched equals sequential on the final quantized state.
  MatchOptions batched = options;
  batched.pool = &reader_pool;
  auto sequential_result = live.MatchRecords(queries, options);
  auto batched_result = live.MatchRecords(queries, batched);
  ASSERT_TRUE(sequential_result.ok()) << sequential_result.status();
  ASSERT_TRUE(batched_result.ok()) << batched_result.status();
  EXPECT_EQ(*batched_result, *sequential_result);
}

}  // namespace
}  // namespace multiem
