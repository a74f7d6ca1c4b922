/// \file bench_scale.cpp
/// Million-row scale-out benchmark: streamed corpus generation
/// (datagen::ScaleCorpusGenerator), a disk-backed end-to-end pipeline run
/// (RunContext::merge_spill_dir -> MergeExecOptions::Spilled), artifact
/// save/reload, and the zero-copy serving path — the numbers behind
/// docs/API.md "Zero-copy serving" and "Spilled merging & memory budget".
///
/// CI gates on the emitted BENCH_scale.json:
///   * peak RSS within --rss_budget_mb (the sharded merge keeps only one
///     shard pair resident, so the budget holds regardless of corpus size),
///   * merging speedup at --threads > the CI threshold (only meaningful on
///     a multi-core runner — the JSON records hardware_concurrency so the
///     gate can refuse to lie on a single-core box), and
///   * the mmap kStructural reload-to-first-query at least 1.5x faster
///     than the heap kStructural one, with bit-identical answers across
///     all three opens timed (neither side of that ratio sweeps checksums,
///     so it isolates the copy a mapped open avoids), and
///   * the RSS growth of the artifact save (save_rss_growth_mb: VmHWM
///     reset right before Matcher::Save and read right after it) within a
///     ratio of artifact_mb.
///
/// Method: every source is rendered in --chunk_rows chunks (the corpus is
/// counter-seeded, so chunks are order-independent); the pipeline runs once
/// serially and once at --threads, both spilled, to isolate the merge-phase
/// speedup exactly like bench_fig5 does; the reload comparison times
/// LoadArtifact + one small MatchRecords batch for the default heap/kFull
/// open, the heap/kStructural open and the mmap/kStructural open of the
/// same artifact (reload.speedup, recorded only, is heap/kFull over
/// mmap/kStructural; reload.structural_speedup, the gated one, is
/// heap/kStructural over mmap/kStructural). The reload record also holds
/// the host's transparent-huge-page mode (reload.thp_mode) and the
/// process's AnonHugePages with the last heap/kFull session loaded
/// (reload.anon_huge_pages_kb), which show whether the heap open's
/// huge-page section blocks got huge pages. A final
/// record-only pass compares first-query latency after a plain kStructural
/// mmap open (pages fault lazily under the query) against one with
/// ArtifactOpenOptions::warm_pages, whose parallel first-touch pass pays
/// the faults before the first request.
///
/// Flags: --rows=1000000      total rows across all sources
///        --sources=4         number of source tables
///        --overlap=0.3       shared-entity fraction per source
///        --threads=4         workers of the parallel run
///        --dim=48            embedding dimensionality (the hashing encoder
///                            rounds it up to a multiple of 64: 48 runs 64-d)
///        --chunk_rows=65536  datagen streaming chunk size
///        --queries=32        rows of the reload-to-first-query batch
///        --reload_repeat=3   best-of-N for every reload timing
///        --measure_speedup=1 also run serially for the merge speedup
///        --rss_budget_mb=0   fail (exit 1) if peak RSS exceeds this; 0 = off
///        --checkpoint_budget=-1  time kCheckpointPairs pairs of plain and
///            checkpoint-journaled pipeline runs; fail (exit 1) when the
///            time the checkpointed runs spend on their journal (appends,
///            fsyncs and spill checksums, PipelineResult::
///            checkpoint_seconds; median over the runs) exceeds this
///            fraction of their wall time (e.g. 0.05 = 5%). The median of
///            the per-pair overhead ratios is recorded, not gated. 0 =
///            record only, negative = skip the pairs entirely
///        --json=PATH         output JSON path ("-" disables)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/matcher.h"
#include "datagen/scale.h"
#include "util/io.h"
#include "util/thread_pool.h"

namespace multiem::bench {
namespace {

namespace core = multiem::core;
namespace fs = std::filesystem;

/// Plain/checkpointed run pairs of the checkpoint-overhead measurement. At
/// 200k rows on a 4-vCPU VM, the ratio of one ~12 s checkpointed run to one
/// plain run swings by ±10% or more from run to run, so differencing runs
/// cannot resolve a 5% budget: the gate reads the time each checkpointed
/// run measures inside itself, and the pairs' median ratio is recorded.
constexpr int kCheckpointPairs = 3;

/// Pipeline knobs tuned for synthetic million-row corpora on the hashing
/// encoder: a moderate dimension and lean HNSW parameters keep the
/// per-insert cost bounded while the m=0.5 threshold still recovers the
/// generator's shared-prefix matches (see scale_test.cpp).
core::MultiEmConfig ScaleConfig(size_t dim, size_t threads) {
  core::MultiEmConfig config;
  config.embedding_dim = dim;
  config.sample_ratio = 0.05;  // the paper's 5M-entity Person setting
  config.m = 0.5f;
  config.hnsw_m = 8;
  config.hnsw_ef_construction = 40;
  config.hnsw_ef_search = 32;
  config.num_threads = threads;
  config.seed = 7;
  return config;
}

/// Streams every source of the corpus into memory in chunk_rows chunks.
/// Chunked on purpose even though the result is resident: it exercises the
/// same AppendRows ranges a disk-spooling caller would use.
std::vector<table::Table> BuildCorpus(
    const datagen::ScaleCorpusGenerator& gen, size_t chunk_rows) {
  std::vector<table::Table> sources;
  sources.reserve(gen.num_sources());
  for (size_t s = 0; s < gen.num_sources(); ++s) {
    table::Table t(gen.source_name(s), gen.schema());
    for (size_t begin = 0; begin < gen.rows_per_source();
         begin += chunk_rows) {
      gen.AppendRows(s, begin, begin + chunk_rows, &t);
    }
    sources.push_back(std::move(t));
  }
  return sources;
}

struct RunOutcome {
  double pipeline_seconds = 0.0;
  double merge_seconds = 0.0;
  double checkpoint_seconds = 0.0;
  size_t num_tuples = 0;
  size_t num_items = 0;
  std::shared_ptr<core::Matcher> matcher;
};

RunOutcome RunPipeline(const core::MultiEmConfig& config,
                       const std::vector<table::Table>& sources,
                       const std::string& spill_dir, bool build_matcher,
                       const std::string& checkpoint_dir = {}) {
  auto pipeline = core::PipelineBuilder(config).Build();
  pipeline.status().CheckOk();
  core::RunContext ctx;
  ctx.merge_spill_dir = spill_dir;
  ctx.build_matcher = build_matcher;
  ctx.checkpoint_dir = checkpoint_dir;
  core::PipelineResult result;
  util::WallTimer timer;
  pipeline->Run(sources, ctx, &result).CheckOk();
  RunOutcome out;
  out.pipeline_seconds = timer.ElapsedSeconds();
  out.merge_seconds = result.timings.Get(core::kPhaseMerging);
  out.checkpoint_seconds = result.checkpoint_seconds;
  out.num_tuples = result.tuples.size();
  out.num_items = result.matcher ? result.matcher->num_items() : 0;
  out.matcher = std::move(result.matcher);
  return out;
}

constexpr double kMiB = 1024.0 * 1024.0;

/// Resets this process's peak RSS (VmHWM) to its current RSS by writing 5
/// to /proc/self/clear_refs (Linux 4.0+). False where the reset is refused
/// or unavailable.
bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool written = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && written;
}

size_t DirectoryBytes(const fs::path& dir) {
  size_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

/// The host's transparent-huge-page mode: the bracketed word of
/// /sys/kernel/mm/transparent_hugepage/enabled ("always", "madvise" or
/// "never"), or "unavailable" where the file cannot be read.
std::string ThpMode() {
  std::ifstream in("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string line;
  std::getline(in, line);
  const size_t open = line.find('[');
  const size_t close = line.find(']', open);
  if (open == std::string::npos || close == std::string::npos) {
    return "unavailable";
  }
  return line.substr(open + 1, close - open - 1);
}

/// This process's anonymous memory in transparent huge pages, in KiB: the
/// AnonHugePages line of /proc/self/smaps_rollup, or -1 where it cannot be
/// read.
long AnonHugePagesKb() {
  std::ifstream in("/proc/self/smaps_rollup");
  const std::string key = "AnonHugePages:";
  for (std::string line; std::getline(in, line);) {
    if (line.compare(0, key.size(), key) == 0) {
      return std::strtol(line.c_str() + key.size(), nullptr, 10);
    }
  }
  return -1;
}

/// Best-of-`repeat` wall time of LoadArtifact(options) + one MatchRecords
/// batch — "reload to first query". The last run's answers are kept so the
/// two open modes can be compared bit-for-bit, and, when
/// `anon_huge_pages_kb` is set, the process's AnonHugePages with the last
/// run's session still loaded.
double TimeReload(const std::string& dir,
                  const util::ArtifactOpenOptions& options,
                  const table::Table& queries, int repeat,
                  std::vector<std::vector<core::RecordMatch>>* answers,
                  long* anon_huge_pages_kb = nullptr) {
  double best = 0.0;
  for (int r = 0; r < repeat; ++r) {
    util::WallTimer timer;
    auto matcher = core::MultiEmPipeline::LoadArtifact(dir, options);
    matcher.status().CheckOk();
    core::MatchOptions match;
    match.k = 3;
    auto got = matcher->MatchRecords(queries, match);
    double seconds = timer.ElapsedSeconds();
    got.status().CheckOk();
    if (r == 0 || seconds < best) best = seconds;
    if (r == repeat - 1) {
      *answers = std::move(*got);
      if (anon_huge_pages_kb != nullptr) {
        *anon_huge_pages_kb = AnonHugePagesKb();
      }
    }
  }
  return best;
}

/// Open + first-query timing, split: `open_seconds` covers
/// LoadArtifact(options) alone, `first_query_ms` covers one MatchRecords
/// batch right after the open — the latency a serving process actually sees
/// on its first request. Both best-of-`repeat`. Used to compare a plain
/// kStructural mmap open (pages fault lazily on the query path) against a
/// warm_pages open (the parallel first-touch pass pays the faults up
/// front, before the query arrives).
struct FirstQueryTiming {
  double open_seconds = 0.0;
  double first_query_ms = 0.0;
};

FirstQueryTiming TimeFirstQuery(const std::string& dir,
                                const util::ArtifactOpenOptions& options,
                                const table::Table& queries, int repeat) {
  FirstQueryTiming best;
  for (int r = 0; r < repeat; ++r) {
    util::WallTimer open_timer;
    auto matcher = core::MultiEmPipeline::LoadArtifact(dir, options);
    matcher.status().CheckOk();
    double open_seconds = open_timer.ElapsedSeconds();
    core::MatchOptions match;
    match.k = 3;
    util::WallTimer query_timer;
    auto got = matcher->MatchRecords(queries, match);
    double query_ms = query_timer.ElapsedSeconds() * 1000.0;
    got.status().CheckOk();
    if (r == 0 || open_seconds < best.open_seconds) {
      best.open_seconds = open_seconds;
    }
    if (r == 0 || query_ms < best.first_query_ms) {
      best.first_query_ms = query_ms;
    }
  }
  return best;
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const size_t rows = static_cast<size_t>(flags.GetDouble("rows", 1e6));
  const size_t num_sources =
      static_cast<size_t>(flags.GetDouble("sources", 4));
  const double overlap = flags.GetDouble("overlap", 0.3);
  const size_t threads = static_cast<size_t>(flags.GetDouble("threads", 4));
  const size_t dim = static_cast<size_t>(flags.GetDouble("dim", 48));
  const size_t chunk_rows =
      static_cast<size_t>(flags.GetDouble("chunk_rows", 65536));
  const size_t num_queries =
      static_cast<size_t>(flags.GetDouble("queries", 32));
  const int reload_repeat =
      static_cast<int>(flags.GetDouble("reload_repeat", 3));
  const bool measure_speedup = flags.GetBool("measure_speedup", true);
  const double rss_budget_mb = flags.GetDouble("rss_budget_mb", 0.0);
  const double checkpoint_budget =
      flags.GetDouble("checkpoint_budget", -1.0);
  const std::string json_path = flags.Get("json", "BENCH_scale.json");
  const size_t hardware = std::thread::hardware_concurrency();

  datagen::ScaleCorpusConfig corpus_config;
  corpus_config.seed = 42;
  corpus_config.num_sources = num_sources;
  corpus_config.rows_per_source = std::max<size_t>(1, rows / num_sources);
  corpus_config.overlap = overlap;
  datagen::ScaleCorpusGenerator gen(corpus_config);

  std::printf("# bench_scale: %zu rows over %zu sources (%zu shared/source), "
              "dim=%zu, threads=%zu, %zu hardware threads\n",
              gen.total_rows(), gen.num_sources(), gen.shared_rows(), dim,
              threads, hardware);

  fs::path work_dir = fs::temp_directory_path() / "multiem_bench_scale";
  fs::remove_all(work_dir);
  fs::create_directories(work_dir);
  const std::string spill_dir = (work_dir / "spill").string();
  const std::string artifact_dir = (work_dir / "artifact").string();

  // ---- datagen: streamed chunks, order-independent per-row seeding.
  util::WallTimer datagen_timer;
  std::vector<table::Table> sources = BuildCorpus(gen, chunk_rows);
  double datagen_seconds = datagen_timer.ElapsedSeconds();
  std::printf("# datagen: %.2fs (%.0f rows/s, chunk=%zu)\n", datagen_seconds,
              static_cast<double>(gen.total_rows()) / datagen_seconds,
              chunk_rows);

  // ---- end-to-end pipeline at --threads, disk-backed merge, with the
  // serving session built so the artifact path below is the full story.
  RunOutcome parallel =
      RunPipeline(ScaleConfig(dim, threads), sources, spill_dir, true);
  std::printf("# pipeline x%zu: %.2fs total, %.2fs merging — %zu tuples, "
              "%zu items\n",
              threads, parallel.pipeline_seconds, parallel.merge_seconds,
              parallel.num_tuples, parallel.num_items);

  // ---- checkpoint overhead: the same config and spill mode with and
  // without the crash-safe journal (RunContext::checkpoint_dir). Journal
  // appends are one fsync per merge node and pipeline phase, and each
  // journaled spill is checksummed, so the cost must stay small. Each
  // checkpointed run measures that time inside itself
  // (PipelineResult::checkpoint_seconds); the gate reads its median share
  // of the run's wall time. The runs alternate in pairs after the first
  // plain run above (every other pair checkpointed first), so host drift
  // falls on both sides of the recorded pair ratio; the JSON's seconds are
  // the median of each side.
  double baseline_seconds = 0.0;
  double checkpointed_seconds = 0.0;
  double checkpoint_overhead = 0.0;
  double in_run_seconds = 0.0;
  double in_run_ratio = 0.0;
  if (checkpoint_budget >= 0.0) {
    const std::string ckpt_dir = (work_dir / "ckpt").string();
    std::vector<double> plain, checkpointed, ratios, in_run, in_run_ratios;
    for (int pair = 0; pair < kCheckpointPairs; ++pair) {
      for (bool journal : {pair % 2 == 1, pair % 2 == 0}) {
        fs::remove_all(ckpt_dir);  // a fresh journal: nothing to resume
        const RunOutcome run =
            RunPipeline(ScaleConfig(dim, threads), sources, spill_dir, true,
                        journal ? ckpt_dir : "");
        (journal ? checkpointed : plain).push_back(run.pipeline_seconds);
        if (journal) {
          in_run.push_back(run.checkpoint_seconds);
          in_run_ratios.push_back(run.checkpoint_seconds /
                                  run.pipeline_seconds);
        }
      }
      ratios.push_back(checkpointed.back() / plain.back() - 1.0);
      std::printf("# checkpoint pair %d: %.2fs checkpointed vs %.2fs plain "
                  "(%+.1f%%), %.4fs in the journal (%.2f%% of the run)\n",
                  pair, checkpointed.back(), plain.back(),
                  ratios.back() * 100.0, in_run.back(),
                  in_run_ratios.back() * 100.0);
    }
    auto median = [](std::vector<double> v) {
      std::sort(v.begin(), v.end());
      return v[v.size() / 2];
    };
    baseline_seconds = median(plain);
    checkpointed_seconds = median(checkpointed);
    checkpoint_overhead = median(ratios);
    in_run_seconds = median(in_run);
    in_run_ratio = median(in_run_ratios);
    std::printf("# checkpoint overhead: %.2f%% of the run in the journal "
                "(median), pairs differ by a median %+.1f%% over %d pairs\n",
                in_run_ratio * 100.0, checkpoint_overhead * 100.0,
                kCheckpointPairs);
  }

  // ---- serial reference for the merge speedup (fig5's method, both runs
  // spilled so only the thread count differs).
  double serial_merge_seconds = 0.0;
  if (measure_speedup) {
    RunOutcome serial =
        RunPipeline(ScaleConfig(dim, 1), sources, spill_dir, false);
    serial_merge_seconds = serial.merge_seconds;
    std::printf("# pipeline x1: %.2fs merging — speedup %.2fx\n",
                serial_merge_seconds,
                parallel.merge_seconds > 0.0
                    ? serial_merge_seconds / parallel.merge_seconds
                    : 0.0);
  }

  // ---- artifact save + the reload-to-first-query comparison: the default
  // heap/kFull open, the heap/kStructural open, and the zero-copy
  // mmap/kStructural open. The peak so far
  // is read before the high-water mark is reset, so peak_rss_mb still
  // covers the whole run; the mark read after the save is the save's own.
  const size_t peak_before_save = util::PeakRssBytes();
  const bool save_rss_measured = ResetPeakRss();
  const size_t rss_at_save = util::PeakRssBytes();
  util::WallTimer save_timer;
  parallel.matcher->Save(artifact_dir).CheckOk();
  double save_seconds = save_timer.ElapsedSeconds();
  const size_t save_peak = util::PeakRssBytes();
  const double save_rss_growth_mb =
      save_rss_measured && save_peak > rss_at_save
          ? static_cast<double>(save_peak - rss_at_save) / kMiB
          : 0.0;
  size_t artifact_bytes = DirectoryBytes(artifact_dir);
  const double artifact_mb = static_cast<double>(artifact_bytes) / kMiB;
  parallel.matcher.reset();  // reloads below must not share its pages

  table::Table queries("queries", gen.schema());
  gen.AppendRows(0, 0, num_queries, &queries);

  util::ArtifactOpenOptions heap_open;  // defaults: kDisable + kFull
  util::ArtifactOpenOptions heap_structural_open;
  heap_structural_open.verify = util::ArtifactOpenOptions::Verify::kStructural;
  util::ArtifactOpenOptions mmap_open = heap_structural_open;
  mmap_open.mapping = util::ArtifactOpenOptions::Mapping::kPrefer;

  std::vector<std::vector<core::RecordMatch>> heap_answers,
      heap_structural_answers, mmap_answers;
  // A heap open reads each section of at least 2 MiB into huge-page
  // blocks; how many it got depends on the host's THP mode.
  const std::string thp_mode = ThpMode();
  long anon_huge_pages_kb = -1;
  double heap_seconds =
      TimeReload(artifact_dir, heap_open, queries, reload_repeat,
                 &heap_answers, &anon_huge_pages_kb);
  double heap_structural_seconds =
      TimeReload(artifact_dir, heap_structural_open, queries, reload_repeat,
                 &heap_structural_answers);
  double mmap_seconds = TimeReload(artifact_dir, mmap_open, queries,
                                   reload_repeat, &mmap_answers);
  bool answers_identical = heap_answers == mmap_answers &&
                           heap_structural_answers == mmap_answers;
  double reload_speedup =
      mmap_seconds > 0.0 ? heap_seconds / mmap_seconds : 0.0;
  double structural_speedup =
      mmap_seconds > 0.0 ? heap_structural_seconds / mmap_seconds : 0.0;
  std::printf("# artifact: %zu bytes (save %.2fs); reload-to-first-query "
              "heap %.4fs, heap structural %.4fs, mmap structural %.4fs "
              "(%.1fx over heap structural, %.1fx over heap; answers %s, "
              "checksum %s)\n",
              artifact_bytes, save_seconds, heap_seconds,
              heap_structural_seconds, mmap_seconds, structural_speedup,
              reload_speedup, answers_identical ? "identical" : "DIFFER",
              util::Fnv1a64SimdEnabled() ? "AVX-512 kernel" : "byte loop");
  std::printf("# transparent huge pages: %s; AnonHugePages after the heap "
              "reload: %ld kB\n",
              thp_mode.c_str(), anon_huge_pages_kb);
  if (save_rss_measured) {
    std::printf("# save RSS growth: %.1f MB for a %.1f MB artifact (%.2fx)\n",
                save_rss_growth_mb, artifact_mb,
                artifact_mb > 0.0 ? save_rss_growth_mb / artifact_mb : 0.0);
  } else {
    std::printf("# save RSS growth: not measured (peak RSS reset refused)\n");
  }

  // ---- warm_pages comparison (record-only, no gate): the same mmap open
  // with the parallel first-touch pass vs without. "cold" here means pages
  // fault lazily on the first query; a truly cold page cache would widen
  // the gap further, so these numbers are a lower bound on the win.
  util::ThreadPool warm_pool(threads);
  util::ArtifactOpenOptions warm_open = mmap_open;
  warm_open.warm_pages = true;
  warm_open.verify_pool = &warm_pool;
  FirstQueryTiming lazy =
      TimeFirstQuery(artifact_dir, mmap_open, queries, reload_repeat);
  FirstQueryTiming warm =
      TimeFirstQuery(artifact_dir, warm_open, queries, reload_repeat);
  std::printf("# warm_pages: first query %.3fms warm vs %.3fms lazy "
              "(open %.4fs vs %.4fs)\n",
              warm.first_query_ms, lazy.first_query_ms, warm.open_seconds,
              lazy.open_seconds);

  size_t peak_rss = std::max(peak_before_save, util::PeakRssBytes());
  double peak_rss_mb = static_cast<double>(peak_rss) / kMiB;
  std::printf("# peak RSS: %.1f MB%s\n", peak_rss_mb,
              rss_budget_mb > 0.0
                  ? (peak_rss_mb <= rss_budget_mb ? " (within budget)"
                                                  : " (OVER BUDGET)")
                  : "");

  double end_to_end_seconds =
      datagen_seconds + parallel.pipeline_seconds + save_seconds;

  if (json_path != "-" && !json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"scale\",\n"
                 "  \"rows\": %zu,\n"
                 "  \"sources\": %zu,\n"
                 "  \"shared_rows_per_source\": %zu,\n"
                 "  \"dim\": %zu,\n"
                 "  \"threads\": %zu,\n"
                 "  \"hardware_concurrency\": %zu,\n"
                 "  \"datagen_seconds\": %.4f,\n"
                 "  \"pipeline_seconds\": %.4f,\n"
                 "  \"save_seconds\": %.4f,\n"
                 "  \"end_to_end_seconds\": %.4f,\n"
                 "  \"num_tuples\": %zu,\n"
                 "  \"num_items\": %zu,\n"
                 "  \"peak_rss_mb\": %.1f,\n"
                 "  \"rss_budget_mb\": %.1f,\n"
                 "  \"artifact_mb\": %.2f,\n"
                 "  \"save_rss_growth_mb\": %.2f,\n"
                 "  \"save_rss_measured\": %s,\n",
                 gen.total_rows(), gen.num_sources(), gen.shared_rows(), dim,
                 threads, hardware, datagen_seconds,
                 parallel.pipeline_seconds, save_seconds, end_to_end_seconds,
                 parallel.num_tuples, parallel.num_items, peak_rss_mb,
                 rss_budget_mb, artifact_mb, save_rss_growth_mb,
                 save_rss_measured ? "true" : "false");
    std::fprintf(f,
                 "  \"merge\": {\"serial_seconds\": %.4f, "
                 "\"parallel_seconds\": %.4f, \"speedup\": %.3f, "
                 "\"measured\": %s},\n",
                 serial_merge_seconds, parallel.merge_seconds,
                 measure_speedup && parallel.merge_seconds > 0.0
                     ? serial_merge_seconds / parallel.merge_seconds
                     : 0.0,
                 measure_speedup ? "true" : "false");
    std::fprintf(f,
                 "  \"reload\": {\"artifact_bytes\": %zu, "
                 "\"heap_seconds\": %.6f, "
                 "\"heap_structural_seconds\": %.6f, "
                 "\"mmap_seconds\": %.6f, \"speedup\": %.3f, "
                 "\"structural_speedup\": %.3f, \"queries\": %zu, "
                 "\"answers_identical\": %s, \"checksum_simd\": %s, "
                 "\"thp_mode\": \"%s\", \"anon_huge_pages_kb\": %ld},\n",
                 artifact_bytes, heap_seconds, heap_structural_seconds,
                 mmap_seconds, reload_speedup, structural_speedup,
                 queries.num_rows(), answers_identical ? "true" : "false",
                 util::Fnv1a64SimdEnabled() ? "true" : "false",
                 thp_mode.c_str(), anon_huge_pages_kb);
    std::fprintf(f,
                 "  \"warm_pages\": {\"lazy_open_seconds\": %.6f, "
                 "\"lazy_first_query_ms\": %.4f, "
                 "\"warm_open_seconds\": %.6f, "
                 "\"warm_first_query_ms\": %.4f},\n",
                 lazy.open_seconds, lazy.first_query_ms, warm.open_seconds,
                 warm.first_query_ms);
    std::fprintf(f,
                 "  \"checkpoint\": {\"baseline_seconds\": %.4f, "
                 "\"checkpointed_seconds\": %.4f, \"overhead_ratio\": %.4f, "
                 "\"in_run_seconds\": %.6f, \"in_run_ratio\": %.6f, "
                 "\"budget_ratio\": %.4f, \"measured\": %s}\n"
                 "}\n",
                 baseline_seconds, checkpointed_seconds,
                 checkpoint_overhead, in_run_seconds, in_run_ratio,
                 checkpoint_budget,
                 checkpoint_budget >= 0.0 ? "true" : "false");
    std::fclose(f);
    std::printf("# wrote %s\n", json_path.c_str());
  }

  fs::remove_all(work_dir);
  if (!answers_identical) {
    std::fprintf(stderr, "FAIL: mmap and heap answers differ\n");
    return 1;
  }
  if (rss_budget_mb > 0.0 && peak_rss_mb > rss_budget_mb) {
    std::fprintf(stderr, "FAIL: peak RSS %.1f MB exceeds budget %.1f MB\n",
                 peak_rss_mb, rss_budget_mb);
    return 1;
  }
  if (checkpoint_budget > 0.0 && in_run_ratio > checkpoint_budget) {
    std::fprintf(stderr,
                 "FAIL: the checkpoint journal takes %.2f%% of the run, over "
                 "the %.1f%% budget\n",
                 in_run_ratio * 100.0, checkpoint_budget * 100.0);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace multiem::bench

int main(int argc, char** argv) { return multiem::bench::Main(argc, argv); }
