/// \file bench_serve.cpp
/// Serving-engine benchmark: batched vs sequential MatchRecords throughput,
/// per-query latency percentiles, the recall-vs-QPS frontier across an
/// ef_search sweep, and incremental vs rebuild AddTable — the numbers behind
/// the epoch-swap Matcher (docs/API.md "Threading model").
///
/// CI gates on the emitted BENCH_serve.json:
///   * batched QPS at 4 threads > 2x sequential QPS (only meaningful on a
///     multi-core runner — the JSON records hardware_concurrency so the gate
///     can refuse to lie on a single-core box), and
///   * incremental AddTable recall@k no worse than the full-rebuild path.
///
/// Method: one pipeline run over all but one source of a datagen benchmark
/// builds the serving session (RunContext::build_matcher); queries are rows
/// resampled from the ingested sources; recall is measured against an exact
/// brute-force oracle over the session's item centroids, computed from the
/// same fitted-encoder embeddings MatchRecords uses. The held-out source is
/// the AddTable workload.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "core/matcher.h"
#include "embed/embedding.h"
#include "embed/serialize.h"
#include "table/table.h"
#include "util/memory.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace multiem::bench {
namespace {

namespace core = multiem::core;

/// Peak resident growth of a span of work: a helper thread samples
/// util::CurrentRssBytes() (VmRSS) every millisecond from construction
/// until StopMb(). It only reads, so the process's VmHWM is left alone.
class RssGrowthSampler {
 public:
  RssGrowthSampler()
      : start_(util::CurrentRssBytes()), peak_(start_), thread_([this] {
          while (!stop_.load(std::memory_order_relaxed)) {
            Sample();
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }) {}
  ~RssGrowthSampler() {
    if (thread_.joinable()) StopMb();
  }
  RssGrowthSampler(const RssGrowthSampler&) = delete;
  RssGrowthSampler& operator=(const RssGrowthSampler&) = delete;

  /// Stops sampling; returns the peak minus the start, in MB.
  double StopMb() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
    Sample();
    return static_cast<double>(peak_ - std::min(peak_, start_)) / 1e6;
  }

 private:
  void Sample() { peak_ = std::max(peak_, util::CurrentRssBytes()); }

  const size_t start_;
  size_t peak_;  // written by the sampler thread until it is joined
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

struct FrontierPoint {
  size_t ef = 0;
  double qps = 0.0;
  double recall = 0.0;
  double mean_distance_evals = 0.0;
  double mean_visited = 0.0;
};

/// Collects the per-query ANN counters of one batched call.
class CounterObserver : public core::MatchObserver {
 public:
  void OnQueryMatched(size_t, const core::MatchQueryStats& stats) override {
    visited += static_cast<double>(stats.visited);
    distance_evals += static_cast<double>(stats.distance_evals);
    ++queries;
  }
  double MeanVisited() const { return queries ? visited / queries : 0.0; }
  double MeanEvals() const { return queries ? distance_evals / queries : 0.0; }

 private:
  double visited = 0.0;
  double distance_evals = 0.0;
  double queries = 0.0;
};

/// Rows resampled round-robin from the run's source tables: every query has
/// a known in-corpus answer, and the mix covers all sources.
table::Table MakeQueryTable(const std::vector<table::Table>& sources,
                            size_t num_queries) {
  table::Table queries("queries", sources[0].schema());
  size_t round = 0;
  while (queries.num_rows() < num_queries) {
    bool appended = false;
    for (const table::Table& t : sources) {
      if (round < t.num_rows() && queries.num_rows() < num_queries) {
        queries.AppendRow(t.row(round)).CheckOk();
        appended = true;
      }
    }
    if (!appended) break;  // corpus smaller than the request: use it all
    ++round;
  }
  return queries;
}

/// Exact top-k items by cosine distance over the epoch's centroids — the
/// recall oracle. Query embeddings come from the same fitted encoder and
/// attribute selection MatchRecords uses, so the only approximation under
/// test is the ANN index itself. Tombstones (items with no members) are
/// skipped: MatchRecords never returns one.
std::vector<std::vector<size_t>> BruteForceTopK(
    const embed::EmbeddingMatrix& queries,
    const core::Matcher::Snapshot& snap, size_t k, util::ThreadPool* pool) {
  const embed::EmbeddingMatrix centroids = snap.centroids();
  std::vector<size_t> live;
  for (size_t i = 0; i < snap.num_items(); ++i) {
    if (!snap.item_members(i).empty()) live.push_back(i);
  }
  std::vector<std::vector<size_t>> out(queries.num_rows());
  util::ParallelFor(pool, queries.num_rows(), [&](size_t row) {
    std::vector<std::pair<float, size_t>> scored(live.size());
    for (size_t j = 0; j < live.size(); ++j) {
      scored[j] = {
          embed::CosineDistance(queries.Row(row), centroids.Row(live[j])),
          live[j]};
    }
    size_t take = std::min(k, scored.size());
    std::partial_sort(scored.begin(), scored.begin() + take, scored.end());
    out[row].reserve(take);
    for (size_t i = 0; i < take; ++i) out[row].push_back(scored[i].second);
  });
  return out;
}

double RecallAtK(const std::vector<std::vector<core::RecordMatch>>& got,
                 const std::vector<std::vector<size_t>>& oracle, size_t k) {
  double hit = 0.0, want = 0.0;
  for (size_t row = 0; row < got.size(); ++row) {
    want += static_cast<double>(std::min(k, oracle[row].size()));
    for (const core::RecordMatch& m : got[row]) {
      if (std::find(oracle[row].begin(), oracle[row].end(), m.item) !=
          oracle[row].end()) {
        hit += 1.0;
      }
    }
  }
  return want == 0.0 ? 0.0 : hit / want;
}

/// Best-of-`repeat` wall time of one full-batch MatchRecords call.
double TimeMatch(const core::Matcher& matcher, const table::Table& queries,
                 const core::MatchOptions& options, int repeat,
                 std::vector<std::vector<core::RecordMatch>>* last = nullptr) {
  double best = 0.0;
  for (int r = 0; r < repeat; ++r) {
    util::WallTimer timer;
    auto result = matcher.MatchRecords(queries, options);
    double seconds = timer.ElapsedSeconds();
    result.status().CheckOk();
    if (r == 0 || seconds < best) best = seconds;
    if (last != nullptr && r == repeat - 1) *last = std::move(*result);
  }
  return best;
}

double Percentile(std::vector<double> sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  size_t idx = static_cast<size_t>(p * static_cast<double>(sorted_ms.size()));
  return sorted_ms[std::min(idx, sorted_ms.size() - 1)];
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string dataset = flags.Get("dataset", "music-20");
  const double scale = flags.GetDouble("scale", 1.0);
  const size_t k = static_cast<size_t>(flags.GetDouble("k", 10));
  const size_t num_queries =
      static_cast<size_t>(flags.GetDouble("queries", 384));
  const int repeat = static_cast<int>(flags.GetDouble("repeat", 3));
  // Live-ingest slice of the held-out source (0 = all rows). The default
  // keeps retired slots under the 25% compaction threshold so the bench
  // exercises the clone-and-insert path, not the rebuild fallback.
  const size_t ingest_rows =
      static_cast<size_t>(flags.GetDouble("ingest_rows", 96));
  const std::string json_path = flags.Get("json", "BENCH_serve.json");
  const size_t hardware = std::thread::hardware_concurrency();

  std::vector<size_t> thread_counts;
  for (std::string tok : util::Split(flags.Get("threads", "1,2,4"), ',')) {
    tok = util::Trim(tok);
    if (tok.empty()) continue;
    thread_counts.push_back(static_cast<size_t>(std::stoul(tok)));
  }
  std::vector<size_t> ef_sweep;
  for (std::string tok : util::Split(flags.Get("ef", "4,8,16,32,64,128"),
                                     ',')) {
    tok = util::Trim(tok);
    if (tok.empty()) continue;
    ef_sweep.push_back(static_cast<size_t>(std::stoul(tok)));
  }
  const size_t max_threads =
      *std::max_element(thread_counts.begin(), thread_counts.end());

  // ---- session build: all sources but the last; the last is the AddTable
  // workload.
  auto data = datagen::MakeDataset(dataset, scale);
  data.status().CheckOk();
  std::vector<table::Table> sources = data->tables;
  if (sources.size() < 3) {
    std::fprintf(stderr, "dataset %s has %zu sources; need >= 3\n",
                 dataset.c_str(), sources.size());
    return 1;
  }
  table::Table ingest("ingest", sources.back().schema());
  ingest.set_name(sources.back().name());
  for (size_t row = 0; row < sources.back().num_rows(); ++row) {
    if (ingest_rows != 0 && ingest.num_rows() == ingest_rows) break;
    ingest.AppendRow(sources.back().row(row)).CheckOk();
  }
  sources.pop_back();

  core::MultiEmConfig config = TunedConfig(dataset);
  config.num_threads = max_threads;

  auto pipeline = core::PipelineBuilder(config).Build();
  pipeline.status().CheckOk();
  core::RunContext ctx;
  ctx.build_matcher = true;
  core::PipelineResult result;
  util::WallTimer build_timer;
  pipeline->Run(sources, ctx, &result).CheckOk();
  double build_seconds = build_timer.ElapsedSeconds();
  core::Matcher& matcher = *result.matcher;

  table::Table queries = MakeQueryTable(sources, num_queries);
  std::printf("# bench_serve: %s scale=%.2f — %zu sources, %zu items, "
              "%zu queries, k=%zu, %zu hardware threads "
              "(pipeline build %.2fs)\n",
              dataset.c_str(), scale, sources.size(), matcher.num_items(),
              queries.num_rows(), k, hardware, build_seconds);

  util::ThreadPool setup_pool(0);
  core::Matcher::Snapshot snap = matcher.snapshot();
  embed::EmbeddingMatrix query_vecs = matcher.encoder().EncodeBatch(
      embed::SerializeTable(queries, matcher.selection().selected_columns),
      &setup_pool);
  std::vector<std::vector<size_t>> oracle =
      BruteForceTopK(query_vecs, snap, k, &setup_pool);

  // ---- sequential baseline: full-batch QPS on the calling thread, plus
  // honest per-query latency percentiles from one-row calls.
  core::MatchOptions sequential;
  sequential.k = k;
  std::vector<std::vector<core::RecordMatch>> seq_matches;
  double seq_seconds =
      TimeMatch(matcher, queries, sequential, repeat, &seq_matches);
  double seq_qps = static_cast<double>(queries.num_rows()) / seq_seconds;
  double seq_recall = RecallAtK(seq_matches, oracle, k);

  std::vector<double> latencies_ms;
  latencies_ms.reserve(queries.num_rows());
  for (size_t row = 0; row < queries.num_rows(); ++row) {
    table::Table one("one", queries.schema());
    one.AppendRow(queries.row(row)).CheckOk();
    util::WallTimer timer;
    matcher.MatchRecords(one, sequential).status().CheckOk();
    latencies_ms.push_back(timer.ElapsedSeconds() * 1e3);
  }
  std::sort(latencies_ms.begin(), latencies_ms.end());
  double p50_ms = Percentile(latencies_ms, 0.50);
  double p99_ms = Percentile(latencies_ms, 0.99);

  std::printf("\n%-12s %10s %10s %10s\n", "mode", "qps", "speedup", "recall");
  std::printf("%-12s %10.0f %10s %10.3f  (p50 %.3fms p99 %.3fms)\n",
              "sequential", seq_qps, "1.00x", seq_recall, p50_ms, p99_ms);

  // ---- batched fan-out at each thread count; CI gates the 4-thread row.
  struct BatchRun {
    size_t threads;
    double qps;
    double recall;
  };
  std::vector<BatchRun> batch_runs;
  for (size_t threads : thread_counts) {
    util::ThreadPool pool(threads);
    core::MatchOptions batched = sequential;
    batched.pool = &pool;
    std::vector<std::vector<core::RecordMatch>> matches;
    double seconds = TimeMatch(matcher, queries, batched, repeat, &matches);
    BatchRun run{threads, static_cast<double>(queries.num_rows()) / seconds,
                 RecallAtK(matches, oracle, k)};
    std::printf("%-12s %10.0f %9.2fx %10.3f\n",
                ("batched x" + std::to_string(threads)).c_str(), run.qps,
                run.qps / seq_qps, run.recall);
    batch_runs.push_back(run);
  }

  // ---- recall-vs-QPS frontier: ef_search sweep at max_threads, with the
  // per-query ANN counters surfaced through the MatchObserver hooks.
  std::vector<FrontierPoint> frontier;
  {
    util::ThreadPool pool(max_threads);
    std::printf("\n%-12s %10s %10s %12s %10s\n", "ef_search", "qps", "recall",
                "dist_evals", "visited");
    for (size_t ef : ef_sweep) {
      core::MatchOptions options;
      options.k = k;
      options.ef_search = ef;
      options.pool = &pool;
      std::vector<std::vector<core::RecordMatch>> matches;
      double seconds = TimeMatch(matcher, queries, options, repeat, &matches);
      CounterObserver counters;
      options.observer = &counters;
      matcher.MatchRecords(queries, options).status().CheckOk();
      FrontierPoint point;
      point.ef = ef;
      point.qps = static_cast<double>(queries.num_rows()) / seconds;
      point.recall = RecallAtK(matches, oracle, k);
      point.mean_distance_evals = counters.MeanEvals();
      point.mean_visited = counters.MeanVisited();
      std::printf("%-12zu %10.0f %10.3f %12.1f %10.1f\n", ef, point.qps,
                  point.recall, point.mean_distance_evals,
                  point.mean_visited);
      frontier.push_back(point);
    }
  }

  // ---- AddTable: clone-and-insert vs the full-rebuild reference, from two
  // bit-identical reloads of the same saved session. The merge is identical
  // on both paths, so one post-ingest oracle serves both recall numbers.
  std::filesystem::path art_dir =
      std::filesystem::temp_directory_path() / "multiem_bench_serve_artifact";
  std::filesystem::remove_all(art_dir);
  matcher.Save(art_dir.string()).CheckOk();
  auto inc = core::MultiEmPipeline::LoadArtifact(art_dir.string());
  auto reb = core::MultiEmPipeline::LoadArtifact(art_dir.string());
  inc.status().CheckOk();
  reb.status().CheckOk();

  util::ThreadPool ingest_pool(max_threads);
  core::AddTableOptions inc_options;
  inc_options.pool = &ingest_pool;
  core::AddTableOptions reb_options = inc_options;
  reb_options.rebuild_index = true;

  RssGrowthSampler inc_rss;
  util::WallTimer inc_timer;
  inc->AddTable(ingest, inc_options).CheckOk();
  double inc_seconds = inc_timer.ElapsedSeconds();
  const double inc_rss_growth_mb = inc_rss.StopMb();
  util::WallTimer reb_timer;
  reb->AddTable(ingest, reb_options).CheckOk();
  double reb_seconds = reb_timer.ElapsedSeconds();

  core::Matcher::Snapshot inc_snap = inc->snapshot();
  core::Matcher::Snapshot reb_snap = reb->snapshot();
  std::vector<std::vector<size_t>> post_oracle =
      BruteForceTopK(query_vecs, inc_snap, k, &setup_pool);
  core::MatchOptions post_options;
  post_options.k = k;
  post_options.pool = &ingest_pool;
  auto inc_matches = inc_snap.MatchRecords(queries, post_options);
  auto reb_matches = reb_snap.MatchRecords(queries, post_options);
  inc_matches.status().CheckOk();
  reb_matches.status().CheckOk();
  double inc_recall = RecallAtK(*inc_matches, post_oracle, k);
  double reb_recall = RecallAtK(*reb_matches, post_oracle, k);
  std::filesystem::remove_all(art_dir);

  std::printf("\n# AddTable %zu rows: incremental %.3fs (recall %.3f, "
              "%zu dead slots, rss +%.1f MB) vs rebuild %.3fs (recall %.3f)\n",
              ingest.num_rows(), inc_seconds, inc_recall,
              inc_snap.dead_slots(), inc_rss_growth_mb, reb_seconds,
              reb_recall);

  if (json_path != "-") {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"serve\",\n"
                 "  \"dataset\": \"%s\",\n"
                 "  \"scale\": %.3f,\n"
                 "  \"queries\": %zu,\n"
                 "  \"k\": %zu,\n"
                 "  \"hardware_concurrency\": %zu,\n"
                 "  \"num_items\": %zu,\n"
                 "  \"sequential\": {\"qps\": %.1f, \"recall\": %.4f, "
                 "\"p50_ms\": %.4f, \"p99_ms\": %.4f},\n",
                 dataset.c_str(), scale, queries.num_rows(), k, hardware,
                 matcher.num_items(), seq_qps, seq_recall, p50_ms, p99_ms);
    std::fprintf(f, "  \"batched\": [\n");
    for (size_t i = 0; i < batch_runs.size(); ++i) {
      const BatchRun& run = batch_runs[i];
      std::fprintf(f,
                   "    {\"threads\": %zu, \"qps\": %.1f, \"speedup\": %.3f, "
                   "\"recall\": %.4f}%s\n",
                   run.threads, run.qps, run.qps / seq_qps, run.recall,
                   i + 1 < batch_runs.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"frontier\": [\n");
    for (size_t i = 0; i < frontier.size(); ++i) {
      const FrontierPoint& p = frontier[i];
      std::fprintf(f,
                   "    {\"ef\": %zu, \"qps\": %.1f, \"recall\": %.4f, "
                   "\"mean_distance_evals\": %.1f, \"mean_visited\": %.1f}%s\n",
                   p.ef, p.qps, p.recall, p.mean_distance_evals,
                   p.mean_visited, i + 1 < frontier.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n"
                 "  \"addtable\": {\"rows\": %zu, "
                 "\"incremental_seconds\": %.4f, \"rebuild_seconds\": %.4f, "
                 "\"incremental_recall\": %.4f, \"rebuild_recall\": %.4f, "
                 "\"dead_slots\": %zu, \"rss_growth_mb\": %.2f}\n"
                 "}\n",
                 ingest.num_rows(), inc_seconds, reb_seconds, inc_recall,
                 reb_recall, inc_snap.dead_slots(), inc_rss_growth_mb);
    std::fclose(f);
    std::printf("# wrote %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace bench

int main(int argc, char** argv) { return multiem::bench::Main(argc, argv); }
