// Crash-safety tests: the MEMJRNL journal's torn-tail and corruption edge
// cases, the deterministic fault-injection plane, capped-backoff retries,
// orphaned-temp sweeping, checkpointed pipeline resume (journaled phases and
// merge nodes are skipped only when their artifacts still validate), and the
// crash-kill harness — children running the 8-source pipeline are crashed at
// randomly armed fault points and resumed until completion, and the final
// tuples + saved artifact must be bitwise identical to an uninterrupted run.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "core/artifact.h"
#include "core/checkpoint.h"
#include "core/merge_plan.h"
#include "core/pipeline.h"
#include "datagen/scale.h"
#include "util/fault.h"
#include "util/io.h"
#include "util/journal.h"
#include "util/retry.h"
#include "util/subprocess.h"

namespace multiem {
namespace {

using core::CheckpointLog;
using core::ComputeRunFingerprint;
using core::MergePlan;
using core::MultiEmConfig;
using core::PipelineBuilder;
using core::PipelineResult;
using core::RunContext;
using util::FaultAction;
using util::FaultInjector;
using util::FaultSpec;
using util::Journal;
using util::RetryPolicy;
using util::ScopedFaultArm;

std::string TempPath(const std::string& name) {
  std::string path = ::testing::TempDir() + "multiem_ckpt_" + name;
  std::filesystem::remove_all(path);
  return path;
}

MultiEmConfig PipelineConfig() {
  MultiEmConfig config;
  config.sample_ratio = 0.25;
  config.m = 0.5f;
  config.index_name = "brute_force";  // deterministic across processes/threads
  config.seed = 5;
  return config;
}

std::vector<table::Table> CorpusTables(size_t sources, size_t rows) {
  datagen::ScaleCorpusConfig config;
  config.seed = 17;
  config.num_sources = sources;
  config.rows_per_source = rows;
  config.overlap = 0.4;
  datagen::ScaleCorpusGenerator gen(config);
  std::vector<table::Table> tables;
  for (size_t s = 0; s < gen.num_sources(); ++s) {
    tables.push_back(gen.MaterializeSource(s));
  }
  return tables;
}

std::vector<uint8_t> FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void FlipByteAt(const std::string& path, std::streamoff offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekg(offset);
  char byte;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  f.seekp(offset);
  f.write(&byte, 1);
}

// ----------------------------------------------------------------- journal --

TEST(JournalTest, AppendReplayRoundTrip) {
  const std::string path = TempPath("journal_roundtrip.jrnl");
  std::vector<std::string> records = {"alpha", std::string("b\0c", 3), "",
                                      std::string(4096, 'x')};
  {
    Journal journal;
    std::vector<std::string> replayed;
    journal.Open(path, &replayed).CheckOk();
    EXPECT_TRUE(replayed.empty());
    for (const std::string& r : records) journal.Append(r).CheckOk();
  }
  Journal journal;
  std::vector<std::string> replayed;
  journal.Open(path, &replayed).CheckOk();
  EXPECT_EQ(records, replayed);
  // Appending after replay keeps extending the same log.
  journal.Append("omega").CheckOk();
  journal.Close();
  std::vector<std::string> again;
  Journal reopened;
  reopened.Open(path, &again).CheckOk();
  records.push_back("omega");
  EXPECT_EQ(records, again);
}

// A crash mid-append leaves fewer bytes than the last record's frame
// declares; replay must drop exactly that record and truncate it away.
TEST(JournalTest, TornFinalRecordIsDroppedAndTruncated) {
  const std::string path = TempPath("journal_torn.jrnl");
  {
    Journal journal;
    std::vector<std::string> replayed;
    journal.Open(path, &replayed).CheckOk();
    journal.Append("first").CheckOk();
    journal.Append("second").CheckOk();
    journal.Append("torn-away").CheckOk();
  }
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size - 3);  // tear the last payload

  Journal journal;
  std::vector<std::string> replayed;
  journal.Open(path, &replayed).CheckOk();
  EXPECT_EQ((std::vector<std::string>{"first", "second"}), replayed);
  EXPECT_LT(std::filesystem::file_size(path), full_size - 3);

  // The truncated journal accepts appends and replays them next time.
  journal.Append("recovered").CheckOk();
  journal.Close();
  Journal reopened;
  reopened.Open(path, &replayed).CheckOk();
  EXPECT_EQ((std::vector<std::string>{"first", "second", "recovered"}),
            replayed);
}

// A complete record with a wrong checksum is corruption, not a torn write:
// Open must refuse with InvalidArgument instead of replaying lies.
TEST(JournalTest, BitFlippedRecordIsRejected) {
  const std::string path = TempPath("journal_flip.jrnl");
  {
    Journal journal;
    std::vector<std::string> replayed;
    journal.Open(path, &replayed).CheckOk();
    journal.Append("record-zero").CheckOk();
    journal.Append("record-one").CheckOk();
  }
  // 16-byte header + 12-byte frame puts the first payload byte at 28.
  FlipByteAt(path, 28);
  Journal journal;
  std::vector<std::string> replayed;
  util::Status opened = journal.Open(path, &replayed);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(util::StatusCode::kInvalidArgument, opened.code());
}

// A directory opens like a file and then "measures" 2^63-1 bytes through
// fseek/ftell on ext4; Open must refuse it rather than size a buffer by it.
TEST(JournalTest, RejectsDirectoryAtPath) {
  const std::string path = TempPath("checkpoint.jrnl");
  std::filesystem::create_directories(path);
  Journal journal;
  std::vector<std::string> replayed;
  util::Status opened = journal.Open(path, &replayed);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(util::StatusCode::kInvalidArgument, opened.code());
  EXPECT_FALSE(journal.is_open());
  EXPECT_TRUE(std::filesystem::is_directory(path));
}

TEST(JournalTest, ForeignFileIsRejected) {
  const std::string path = TempPath("journal_foreign.jrnl");
  std::ofstream(path, std::ios::binary) << "this is not a MEMJRNL container";
  Journal journal;
  std::vector<std::string> replayed;
  util::Status opened = journal.Open(path, &replayed);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(util::StatusCode::kInvalidArgument, opened.code());
}

// ------------------------------------------------------------- temp sweep --

TEST(SweepTest, RemovesOnlyTopLevelOrphanedTemps) {
  const std::string dir = TempPath("sweep");
  std::filesystem::create_directories(dir + "/sub");
  std::ofstream(dir + "/a.tmp") << "stale staged write";
  std::ofstream(dir + "/b.mem") << "committed artifact";
  std::ofstream(dir + "/c.mem.tmp") << "stale staged artifact";
  std::ofstream(dir + "/sub/d.tmp") << "not ours to sweep";

  EXPECT_EQ(2u, util::SweepOrphanTmpFiles(dir));
  EXPECT_FALSE(std::filesystem::exists(dir + "/a.tmp"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/c.mem.tmp"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/b.mem"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/sub/d.tmp"));

  EXPECT_EQ(0u, util::SweepOrphanTmpFiles(dir));               // idempotent
  EXPECT_EQ(0u, util::SweepOrphanTmpFiles(dir + "/missing"));  // no dir, no-op
}

// -------------------------------------------------------- fault injection --

TEST(FaultInjectorTest, FailTriggersAtConfiguredHitOnly) {
  ScopedFaultArm arm(FaultSpec{.site = "test.site.fail",
                               .action = FaultAction::kFail,
                               .hit = 2});
  EXPECT_TRUE(FaultInjector::Global().Hit("test.site.fail").ok());
  util::Status second = FaultInjector::Global().Hit("test.site.fail");
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(util::StatusCode::kInternal, second.code());
  EXPECT_NE(std::string::npos, second.message().find("test.site.fail"));
  EXPECT_TRUE(FaultInjector::Global().Hit("test.site.fail").ok());
  EXPECT_EQ(3u, FaultInjector::Global().HitCount("test.site.fail"));
}

TEST(FaultInjectorTest, DelayActionContinues) {
  ScopedFaultArm arm(FaultSpec{.site = "test.site.delay",
                               .action = FaultAction::kDelay,
                               .hit = 1,
                               .delay_ms = 1});
  EXPECT_TRUE(FaultInjector::Global().Hit("test.site.delay").ok());
}

TEST(FaultInjectorTest, ArmFromStringParsesTheEnvFormat) {
  FaultInjector& injector = FaultInjector::Global();
  injector
      .ArmFromString("a.site:fail:2,b.site:delay:1:5")
      .CheckOk();
  EXPECT_TRUE(injector.Hit("a.site").ok());
  EXPECT_FALSE(injector.Hit("a.site").ok());
  EXPECT_TRUE(injector.Hit("b.site").ok());
  injector.Reset();

  EXPECT_FALSE(injector.ArmFromString("missing-colon").ok());
  EXPECT_FALSE(injector.ArmFromString("site:explode").ok());
  EXPECT_FALSE(injector.ArmFromString("site:fail:0").ok());  // hits are 1-based
  // A malformed clause arms nothing, including valid clauses before it.
  EXPECT_FALSE(injector.ArmFromString("ok.site:fail,bad").ok());
  EXPECT_TRUE(injector.Hit("ok.site").ok());
  injector.Reset();
}

// ------------------------------------------------------------------ retry --

TEST(RetryTest, BackoffScheduleIsDeterministicAndCapped) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 50;
  policy.max_backoff_ms = 120;
  policy.multiplier = 2.0;
  policy.jitter = 0.25;
  policy.jitter_seed = 7;

  EXPECT_EQ(0u, util::BackoffMs(policy, 1));  // first attempt is immediate
  for (size_t attempt = 2; attempt <= 6; ++attempt) {
    const uint64_t delay = util::BackoffMs(policy, attempt);
    EXPECT_EQ(delay, util::BackoffMs(policy, attempt)) << attempt;
    EXPECT_LE(delay, 120u) << attempt;
    // Jitter shaves at most 25% off the nominal delay.
    const uint64_t nominal =
        std::min<uint64_t>(120, 50ull << (attempt - 2));
    EXPECT_GE(delay, nominal - nominal / 4 - 1) << attempt;
  }

  RetryPolicy reseeded = policy;
  reseeded.jitter_seed = 8;
  bool any_difference = false;
  for (size_t attempt = 2; attempt <= 6; ++attempt) {
    any_difference |=
        util::BackoffMs(policy, attempt) != util::BackoffMs(reseeded, attempt);
  }
  EXPECT_TRUE(any_difference) << "different seeds, identical schedule";
}

TEST(RetryTest, RetriesUntilSuccessAndReportsAttempts) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff_ms = 1;
  policy.max_backoff_ms = 2;
  size_t attempts = 0;
  size_t calls = 0;
  util::Status status = util::RetryWithBackoff(
      policy,
      [&](size_t attempt) -> util::Status {
        ++calls;
        EXPECT_EQ(calls, attempt);
        if (attempt < 3) return util::Status::Internal("flaky");
        return util::Status::Ok();
      },
      /*cancelled=*/nullptr, &attempts);
  status.CheckOk();
  EXPECT_EQ(3u, attempts);
}

TEST(RetryTest, ExhaustionReturnsTheLastError) {
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.initial_backoff_ms = 1;
  size_t attempts = 0;
  util::Status status = util::RetryWithBackoff(
      policy,
      [&](size_t attempt) -> util::Status {
        return util::Status::Internal("attempt " + std::to_string(attempt));
      },
      /*cancelled=*/nullptr, &attempts);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(2u, attempts);
  EXPECT_NE(std::string::npos, status.message().find("attempt 2"));
}

TEST(RetryTest, CancelledStatusIsNeverRetried) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  size_t attempts = 0;
  util::Status status = util::RetryWithBackoff(
      policy,
      [&](size_t) -> util::Status {
        return util::Status::Cancelled("caller went away");
      },
      /*cancelled=*/nullptr, &attempts);
  EXPECT_EQ(util::StatusCode::kCancelled, status.code());
  EXPECT_EQ(1u, attempts);
}

// --------------------------------------------------------- checkpoint log --

TEST(CheckpointLogTest, PhasesAndNodesSurviveReopen) {
  const std::string dir = TempPath("log_reopen");
  CheckpointLog::NodeEntry entry;
  entry.stats = {/*node=*/7, /*mutual_pairs=*/11, /*merged_items=*/5,
                 /*carried_items=*/2, /*attempts=*/3};
  entry.spill_path = dir + "/merge_7.mem";
  entry.file_bytes = 123;
  entry.file_checksum = 0xfeedbeef;
  {
    auto log = CheckpointLog::Open(dir, /*fingerprint=*/42);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    EXPECT_FALSE((*log)->HasPhase("selection"));
    (*log)->RecordPhase("selection", "payload-bytes").CheckOk();
    (*log)->RecordNode(entry).CheckOk();
  }
  auto log = CheckpointLog::Open(dir, /*fingerprint=*/42);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_EQ(1u, (*log)->replayed_phases());
  EXPECT_EQ(1u, (*log)->replayed_nodes());
  ASSERT_TRUE((*log)->HasPhase("selection"));
  ASSERT_NE(nullptr, (*log)->PhasePayload("selection"));
  EXPECT_EQ("payload-bytes", *(*log)->PhasePayload("selection"));
  const CheckpointLog::NodeEntry* replayed = (*log)->LookupNode(7);
  ASSERT_NE(nullptr, replayed);
  EXPECT_EQ(entry.stats.mutual_pairs, replayed->stats.mutual_pairs);
  EXPECT_EQ(entry.stats.attempts, replayed->stats.attempts);
  EXPECT_EQ(entry.spill_path, replayed->spill_path);
  EXPECT_EQ(entry.file_bytes, replayed->file_bytes);
  EXPECT_EQ(entry.file_checksum, replayed->file_checksum);
  EXPECT_EQ(nullptr, (*log)->LookupNode(8));
}

// A checkpoint dir reused with different inputs/config must start over, not
// resume a different run's progress.
TEST(CheckpointLogTest, FingerprintMismatchDiscardsTheJournal) {
  const std::string dir = TempPath("log_fingerprint");
  {
    auto log = CheckpointLog::Open(dir, /*fingerprint=*/42);
    ASSERT_TRUE(log.ok());
    (*log)->RecordPhase("selection").CheckOk();
  }
  auto other = CheckpointLog::Open(dir, /*fingerprint=*/43);
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  EXPECT_EQ(0u, (*other)->replayed_phases());
  EXPECT_FALSE((*other)->HasPhase("selection"));
}

TEST(CheckpointLogTest, ValidateSpillChecksSizeAndChecksum) {
  const std::string dir = TempPath("log_validate");
  std::filesystem::create_directories(dir);
  const std::string spill = dir + "/merge_3.mem";
  std::ofstream(spill, std::ios::binary) << "spilled merge bytes";

  CheckpointLog::NodeEntry entry;
  entry.spill_path = spill;
  entry.file_bytes = std::filesystem::file_size(spill);
  auto checksum = CheckpointLog::HashFile(spill);
  ASSERT_TRUE(checksum.ok());
  entry.file_checksum = *checksum;
  EXPECT_TRUE(CheckpointLog::ValidateSpill(entry));

  CheckpointLog::NodeEntry corrupt = entry;
  corrupt.file_checksum ^= 1;
  EXPECT_FALSE(CheckpointLog::ValidateSpill(corrupt));

  CheckpointLog::NodeEntry wrong_size = entry;
  wrong_size.file_bytes += 1;
  EXPECT_FALSE(CheckpointLog::ValidateSpill(wrong_size));

  CheckpointLog::NodeEntry missing = entry;
  missing.spill_path = dir + "/never_written.mem";
  EXPECT_FALSE(CheckpointLog::ValidateSpill(missing));
}

// The run fingerprint must react to config knobs and input shape, and must
// NOT react to thread count (results are thread-count invariant).
TEST(CheckpointLogTest, RunFingerprintTracksConfigAndInputs) {
  auto tables = CorpusTables(3, 20);
  MultiEmConfig config = PipelineConfig();
  const uint64_t base = ComputeRunFingerprint(config, tables);
  EXPECT_EQ(base, ComputeRunFingerprint(config, tables));
  // Pinned: checkpoint directories written by earlier builds must still
  // resume, so an unquantized fingerprint never changes value.
  EXPECT_EQ(0xf6a290ec1d541c0bULL, base);

  MultiEmConfig reseeded = config;
  reseeded.seed = config.seed + 1;
  EXPECT_NE(base, ComputeRunFingerprint(reseeded, tables));

  MultiEmConfig threaded = config;
  threaded.num_threads = 8;
  EXPECT_EQ(base, ComputeRunFingerprint(threaded, tables));

  // Quantization changes the merge tuples, so a resume under another mode
  // must not adopt journaled nodes. rerank_factor only counts when some
  // quantization reads it.
  MultiEmConfig int8 = config;
  int8.quantization = "int8";
  int8.rerank_factor = 4;
  EXPECT_NE(base, ComputeRunFingerprint(int8, tables));
  MultiEmConfig int8_rerank8 = int8;
  int8_rerank8.rerank_factor = 8;
  EXPECT_NE(ComputeRunFingerprint(int8, tables),
            ComputeRunFingerprint(int8_rerank8, tables));
  MultiEmConfig fp32_rerank8 = config;
  fp32_rerank8.rerank_factor = 8;
  EXPECT_EQ(base, ComputeRunFingerprint(fp32_rerank8, tables));

  auto fewer = CorpusTables(2, 20);
  EXPECT_NE(base, ComputeRunFingerprint(config, fewer));
}

// ------------------------------------------------------- pipeline resume --

PipelineResult RunPipeline(const std::vector<table::Table>& tables,
                           const std::string& checkpoint_dir = {},
                           bool build_matcher = false) {
  auto pipeline = PipelineBuilder(PipelineConfig()).Build();
  pipeline.status().CheckOk();
  RunContext ctx;
  ctx.checkpoint_dir = checkpoint_dir;
  ctx.build_matcher = build_matcher;
  PipelineResult result;
  pipeline->Run(tables, ctx, &result).CheckOk();
  return result;
}

// An injected mid-merge failure must leave a resumable checkpoint; the rerun
// must skip the journaled prefix and still produce bitwise-identical output.
TEST(CheckpointPipelineTest, ResumeAfterInjectedFailureIsBitwiseIdentical) {
  auto tables = CorpusTables(6, 30);
  PipelineResult baseline = RunPipeline(tables);

  const std::string ckpt = TempPath("resume_fail");
  {
    ScopedFaultArm arm(FaultSpec{.site = "merge.node.commit",
                                 .action = FaultAction::kFail,
                                 .hit = 2});
    auto pipeline = PipelineBuilder(PipelineConfig()).Build();
    pipeline.status().CheckOk();
    RunContext ctx;
    ctx.checkpoint_dir = ckpt;
    PipelineResult partial;
    util::Status failed = pipeline->Run(tables, ctx, &partial);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(util::StatusCode::kInternal, failed.code());
  }

  // The first committed node and the selection phase are on disk.
  {
    auto log = CheckpointLog::Open(
        ckpt, ComputeRunFingerprint(PipelineConfig(), tables));
    ASSERT_TRUE(log.ok());
    EXPECT_GE((*log)->replayed_nodes(), 1u);
    EXPECT_TRUE((*log)->HasPhase(core::kPhaseSelection));
  }

  PipelineResult resumed = RunPipeline(tables, ckpt);
  EXPECT_EQ(baseline.tuples, resumed.tuples);
  EXPECT_EQ(baseline.selection.selected_columns,
            resumed.selection.selected_columns);
  ASSERT_EQ(baseline.merge_stats.levels.size(),
            resumed.merge_stats.levels.size());
  for (size_t l = 0; l < baseline.merge_stats.levels.size(); ++l) {
    EXPECT_EQ(baseline.merge_stats.levels[l].mutual_pairs,
              resumed.merge_stats.levels[l].mutual_pairs) << "level " << l;
  }

  // The resume consumed or removed every spill the failed attempt left,
  // leaves included: only the root's, the resume point, remains.
  const MergePlan plan = MergePlan::Build(tables.size(), PipelineConfig().seed);
  std::vector<std::string> spills;
  for (const auto& file :
       std::filesystem::directory_iterator(ckpt + "/spill")) {
    spills.push_back(file.path().filename().string());
  }
  EXPECT_EQ(std::vector<std::string>{core::SpillFileName(plan.root())},
            spills);
}

// A journaled selection record that does not decode — here a checksum-valid
// record whose name count its bytes cannot hold — is recomputed, never
// trusted and never fatal.
TEST(CheckpointPipelineTest, OversizedSelectionRecordIsRecomputed) {
  auto tables = CorpusTables(4, 30);
  PipelineResult baseline = RunPipeline(tables);

  const std::string ckpt = TempPath("oversized_selection");
  {
    auto log = CheckpointLog::Open(
        ckpt, ComputeRunFingerprint(PipelineConfig(), tables));
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    util::ByteWriter record;
    record.WriteU64Array(std::vector<uint64_t>{0});
    record.WriteF64Array(std::vector<double>{0.5});
    record.WriteU64(uint64_t{1} << 40);  // selected-name count
    const std::string payload(record.bytes().begin(), record.bytes().end());
    (*log)->RecordPhase(core::kPhaseSelection, payload).CheckOk();
  }

  PipelineResult resumed = RunPipeline(tables, ckpt);
  EXPECT_EQ(baseline.tuples, resumed.tuples);
  EXPECT_EQ(baseline.selection.selected_columns,
            resumed.selection.selected_columns);
  EXPECT_EQ(baseline.selection.selected_names,
            resumed.selection.selected_names);
}

// Rerunning a *completed* checkpointed run must reuse the journal (the root
// spill restores the whole merge) and reproduce the stats via the journaled
// counters.
TEST(CheckpointPipelineTest, CompletedRunResumesToIdenticalResults) {
  auto tables = CorpusTables(5, 30);
  const std::string ckpt = TempPath("resume_completed");
  PipelineResult first = RunPipeline(tables, ckpt);
  {
    auto log = CheckpointLog::Open(
        ckpt, ComputeRunFingerprint(PipelineConfig(), tables));
    ASSERT_TRUE(log.ok());
    EXPECT_GE((*log)->replayed_nodes(), 1u) << "no merge nodes journaled";
  }
  PipelineResult second = RunPipeline(tables, ckpt);
  EXPECT_EQ(first.tuples, second.tuples);
  ASSERT_EQ(first.merge_stats.levels.size(), second.merge_stats.levels.size());
  for (size_t l = 0; l < first.merge_stats.levels.size(); ++l) {
    EXPECT_EQ(first.merge_stats.levels[l].mutual_pairs,
              second.merge_stats.levels[l].mutual_pairs) << "level " << l;
    EXPECT_EQ(first.merge_stats.levels[l].pairs_merged,
              second.merge_stats.levels[l].pairs_merged) << "level " << l;
  }
}

// A checkpointed run reports the time its journal cost (appends, fsyncs and
// spill checksums); a run without a checkpoint reports none.
TEST(CheckpointPipelineTest, RunReportsItsCheckpointSeconds) {
  auto tables = CorpusTables(5, 30);
  PipelineResult plain = RunPipeline(tables);
  EXPECT_EQ(0.0, plain.checkpoint_seconds);
  PipelineResult journaled =
      RunPipeline(tables, TempPath("checkpoint_seconds"));
  EXPECT_GT(journaled.checkpoint_seconds, 0.0);
  EXPECT_EQ(plain.tuples, journaled.tuples);
}

// A journaled spill whose bytes no longer match its journaled checksum must
// silently degrade to recompute — never corrupt output, never a hard error.
TEST(CheckpointPipelineTest, CorruptJournaledSpillIsRecomputed) {
  auto tables = CorpusTables(5, 30);
  const std::string ckpt = TempPath("resume_corrupt_spill");
  PipelineResult first = RunPipeline(tables, ckpt);

  // Locate the journaled root spill (the one file a completed run keeps).
  MergePlan plan = MergePlan::Build(tables.size(), PipelineConfig().seed);
  std::string root_spill;
  {
    auto log = CheckpointLog::Open(
        ckpt, ComputeRunFingerprint(PipelineConfig(), tables));
    ASSERT_TRUE(log.ok());
    const CheckpointLog::NodeEntry* root = (*log)->LookupNode(plan.root());
    ASSERT_NE(nullptr, root) << "root node not journaled";
    root_spill = root->spill_path;
  }
  ASSERT_TRUE(std::filesystem::exists(root_spill)) << root_spill;
  FlipByteAt(root_spill, static_cast<std::streamoff>(
                             std::filesystem::file_size(root_spill) / 2));

  PipelineResult recomputed = RunPipeline(tables, ckpt);
  EXPECT_EQ(first.tuples, recomputed.tuples);
}

// Orphaned temp files from crashed atomic writes are swept when the run
// opens its checkpoint dir, and never break the run.
TEST(CheckpointPipelineTest, OrphanedTempsAreSweptOnOpen) {
  auto tables = CorpusTables(4, 25);
  const std::string ckpt = TempPath("resume_sweep");
  std::filesystem::create_directories(ckpt + "/spill");
  std::ofstream(ckpt + "/stale_journal.tmp") << "crashed journal write";
  std::ofstream(ckpt + "/spill/merge_9.mem.tmp") << "crashed spill write";

  PipelineResult result = RunPipeline(tables, ckpt);
  EXPECT_FALSE(result.tuples.empty());
  EXPECT_FALSE(std::filesystem::exists(ckpt + "/stale_journal.tmp"));
  EXPECT_FALSE(std::filesystem::exists(ckpt + "/spill/merge_9.mem.tmp"));
}

// ------------------------------------------------------ crash-kill harness --

// The tentpole gate: children running the 8-source pipeline are crashed at
// randomly armed fault points (hard _exit, no unwinding) and restarted with
// the same checkpoint dir until one completes. The surviving tuples and the
// saved serving artifact must equal an uninterrupted run's bit for bit.
TEST(CrashKillHarnessTest, RandomCrashResumeLoopConvergesBitwise) {
  auto tables = CorpusTables(8, 25);

  auto pipeline = PipelineBuilder(PipelineConfig()).Build();
  pipeline.status().CheckOk();
  RunContext baseline_ctx;
  baseline_ctx.build_matcher = true;
  PipelineResult baseline;
  pipeline->Run(tables, baseline_ctx, &baseline).CheckOk();
  const std::string baseline_dir = TempPath("crash_baseline");
  baseline.matcher->Save(baseline_dir).CheckOk();

  const std::string ckpt = TempPath("crash_ckpt");
  const std::string final_dir = TempPath("crash_final");
  const std::vector<std::string> sites = {
      "io.write.stage",       "io.write.commit", "merge.node.spill",
      "merge.node.commit",    "pipeline.phase.commit"};

  size_t crashes = 0;
  bool completed = false;
  for (int round = 0; round < 30 && !completed; ++round) {
    // Deterministic pseudo-random crash schedule: a different site and hit
    // index each round, so progress lands at a different point every time.
    // Round 0 always crashes the first merge spill — an 8-source merge hits
    // that site unconditionally — so the loop provably exercises resume.
    std::mt19937 rng(static_cast<uint32_t>(round) * 7919u + 13u);
    const std::string site = round == 0 ? "merge.node.spill"
                                        : sites[rng() % sites.size()];
    const uint64_t hit = round == 0 ? 1 : 1 + rng() % 4;
    const std::string arm = site + ":crash:" + std::to_string(hit);

    auto child = util::Subprocess::Fork([&](int) -> int {
      // The fork inherits the parent's fault-point hit counters (earlier
      // tests ran pipelines in this process); a fresh run starts from zero.
      FaultInjector::Global().Reset();
      auto p = PipelineBuilder(PipelineConfig()).Build();
      if (!p.ok()) return 3;
      RunContext ctx;
      ctx.checkpoint_dir = ckpt;
      ctx.build_matcher = true;
      ctx.arm_faults = arm;
      PipelineResult result;
      if (!p->Run(tables, ctx, &result).ok()) return 2;
      std::error_code ec;
      std::filesystem::remove_all(final_dir, ec);
      if (!result.matcher->Save(final_dir).ok()) return 3;
      return 0;
    });
    ASSERT_TRUE(child.ok()) << child.status().ToString();
    auto ws = child->Wait(/*timeout_ms=*/180000);
    ASSERT_TRUE(ws.ok()) << ws.status().ToString();
    ASSERT_TRUE(ws->exited) << "child killed by signal " << ws->term_signal;
    if (ws->exit_code == 0) {
      completed = true;
    } else {
      // 42 is util/fault.h's crash exit code; anything else is a real bug.
      ASSERT_EQ(42, ws->exit_code) << "round " << round << " armed " << arm;
      ++crashes;
    }
  }
  ASSERT_TRUE(completed) << "crash/resume loop never converged";
  EXPECT_GE(crashes, 1u) << "no armed crash ever fired";

  for (const char* file : {core::PipelineArtifact::kManifestFile,
                           core::PipelineArtifact::kEncoderFile,
                           core::PipelineArtifact::kIndexFile}) {
    EXPECT_EQ(FileBytes(baseline_dir + "/" + file),
              FileBytes(final_dir + "/" + file))
        << file << " differs after " << crashes << " crash(es)";
  }

  // A final in-process resume over the survivor checkpoint reproduces the
  // uninterrupted tuples exactly.
  RunContext resume_ctx;
  resume_ctx.checkpoint_dir = ckpt;
  PipelineResult resumed;
  pipeline->Run(tables, resume_ctx, &resumed).CheckOk();
  EXPECT_EQ(baseline.tuples, resumed.tuples);
}

}  // namespace
}  // namespace multiem
