/// \file bench_distrib.cpp
/// Multi-process build benchmark: the same streamed corpus is built once by
/// the single-process pipeline and once by distrib::Coordinator at
/// --workers forked processes, and the outputs are compared byte-for-byte
/// — tuples in-process (always a hard gate: exit 1 on any difference), and
/// saved serving artifacts on disk so CI can `cmp` manifest/encoder/index
/// against the single-process build.
///
/// Determinism setup: the single-process run uses num_threads=1 and every
/// worker runs single-threaded (CoordinatorOptions::worker_threads = 1),
/// because parallel HNSW construction is not thread-count invariant. The
/// coordinator therefore gains wall clock only from process-level
/// parallelism — exactly the claim the --min_speedup gate checks.
///
/// Flags: --rows=200000       total rows across all sources
///        --sources=4         number of source tables
///        --overlap=0.3       shared-entity fraction per source
///        --workers=4         worker processes for the distributed build
///        --dim=48            embedding dimensionality (the hashing encoder
///                            rounds it up to a multiple of 64: 48 runs 64-d)
///        --chunk_rows=65536  datagen streaming chunk size
///        --min_speedup=0     fail (exit 1) unless single/distrib wall
///                            clock ratio >= this; 0 = record only
///        --out_dir=PATH      keep artifacts + tuple dumps here for CI cmp
///                            ("" = private temp dir, removed on exit)
///        --json=PATH         output JSON path ("-" disables)

#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/matcher.h"
#include "datagen/scale.h"
#include "distrib/coordinator.h"
#include "eval/tuples.h"

namespace multiem::bench {
namespace {

namespace core = multiem::core;
namespace distrib = multiem::distrib;
namespace fs = std::filesystem;

/// Same knobs as bench_scale's ScaleConfig, pinned to one thread: both
/// builds must execute every index construction serially so the saved
/// artifacts admit a byte-level comparison.
core::MultiEmConfig DistribConfig(size_t dim) {
  core::MultiEmConfig config;
  config.embedding_dim = dim;
  config.sample_ratio = 0.05;
  config.m = 0.5f;
  config.hnsw_m = 8;
  config.hnsw_ef_construction = 40;
  config.hnsw_ef_search = 32;
  config.num_threads = 1;
  config.seed = 7;
  return config;
}

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

/// One line per tuple, member entity ids space-separated, in pipeline
/// output order — both builds must produce byte-identical files.
void DumpTuples(const std::vector<eval::Tuple>& tuples,
                const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  for (const eval::Tuple& tuple : tuples) {
    for (size_t i = 0; i < tuple.size(); ++i) {
      std::fprintf(f, i == 0 ? "%llu" : " %llu",
                   static_cast<unsigned long long>(tuple[i].packed()));
    }
    std::fputc('\n', f);
  }
  std::fclose(f);
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const size_t rows = static_cast<size_t>(flags.GetDouble("rows", 200000));
  const size_t num_sources =
      static_cast<size_t>(flags.GetDouble("sources", 4));
  const double overlap = flags.GetDouble("overlap", 0.3);
  const size_t workers = static_cast<size_t>(flags.GetDouble("workers", 4));
  const size_t dim = static_cast<size_t>(flags.GetDouble("dim", 48));
  const size_t chunk_rows =
      static_cast<size_t>(flags.GetDouble("chunk_rows", 65536));
  const double min_speedup = flags.GetDouble("min_speedup", 0.0);
  const std::string out_dir_flag = flags.Get("out_dir", "");
  const std::string json_path = flags.Get("json", "BENCH_distrib.json");
  const size_t hardware = std::thread::hardware_concurrency();

  datagen::ScaleCorpusConfig corpus_config;
  corpus_config.seed = 42;
  corpus_config.num_sources = num_sources;
  corpus_config.rows_per_source = std::max<size_t>(1, rows / num_sources);
  corpus_config.overlap = overlap;
  datagen::ScaleCorpusGenerator gen(corpus_config);

  std::printf("# bench_distrib: %zu rows over %zu sources, dim=%zu, "
              "%zu workers, %zu hardware threads\n",
              gen.total_rows(), gen.num_sources(), dim, workers, hardware);

  const bool keep_out = !out_dir_flag.empty();
  fs::path out_dir = keep_out
                         ? fs::path(out_dir_flag)
                         : fs::temp_directory_path() / "multiem_bench_distrib";
  fs::create_directories(out_dir);
  fs::path work_dir = fs::temp_directory_path() / "multiem_bench_distrib_wk";
  fs::remove_all(work_dir);
  fs::create_directories(work_dir);

  std::vector<table::Table> sources = BuildCorpus(gen, chunk_rows);
  const core::MultiEmConfig config = DistribConfig(dim);

  // ---- single-process reference: the ordinary pipeline, disk-backed
  // merge, serving Matcher built and saved for the CI artifact cmp.
  auto pipeline = core::PipelineBuilder(config).Build();
  pipeline.status().CheckOk();
  core::RunContext ctx;
  ctx.merge_spill_dir = (work_dir / "spill").string();
  ctx.build_matcher = true;
  core::PipelineResult single;
  util::WallTimer single_timer;
  pipeline->Run(sources, ctx, &single).CheckOk();
  double single_seconds = single_timer.ElapsedSeconds();
  single.matcher->Save((out_dir / "artifact_single").string()).CheckOk();
  DumpTuples(single.tuples, (out_dir / "tuples_single.txt").string());
  std::printf("# single-process: %.2fs, %zu tuples\n", single_seconds,
              single.tuples.size());

  // ---- distributed build at --workers forked processes.
  distrib::CoordinatorOptions options;
  options.num_workers = workers;
  options.work_dir = (work_dir / "shards").string();
  options.build_matcher = true;
  distrib::Coordinator coordinator(config, options);
  util::WallTimer distrib_timer;
  auto result = coordinator.Build(sources);
  double distrib_seconds = distrib_timer.ElapsedSeconds();
  result.status().CheckOk();
  result->run.matcher->Save((out_dir / "artifact_distrib").string()).CheckOk();
  DumpTuples(result->run.tuples, (out_dir / "tuples_distrib.txt").string());
  double speedup =
      distrib_seconds > 0.0 ? single_seconds / distrib_seconds : 0.0;
  std::printf("# distributed x%zu: %.2fs (%.2fx vs single-process), "
              "%zu tuples, %zu retries\n",
              result->distrib.workers, distrib_seconds, speedup,
              result->run.tuples.size(), result->distrib.retries);

  bool tuples_identical = single.tuples == result->run.tuples;
  std::printf("# tuples %s\n",
              tuples_identical ? "bitwise identical" : "DIFFER");

  if (json_path != "-" && !json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"distrib\",\n"
                 "  \"rows\": %zu,\n"
                 "  \"sources\": %zu,\n"
                 "  \"dim\": %zu,\n"
                 "  \"workers\": %zu,\n"
                 "  \"hardware_concurrency\": %zu,\n"
                 "  \"single_seconds\": %.4f,\n"
                 "  \"distrib_seconds\": %.4f,\n"
                 "  \"speedup\": %.3f,\n"
                 "  \"min_speedup\": %.3f,\n"
                 "  \"num_tuples\": %zu,\n"
                 "  \"tuples_identical\": %s,\n"
                 "  \"distrib_detail\": {\"worker_seconds\": %.4f, "
                 "\"merge_seconds\": %.4f, \"frontier_nodes\": %zu, "
                 "\"retries\": %zu}\n"
                 "}\n",
                 gen.total_rows(), gen.num_sources(), dim,
                 result->distrib.workers, hardware, single_seconds,
                 distrib_seconds, speedup, min_speedup,
                 result->run.tuples.size(),
                 tuples_identical ? "true" : "false",
                 result->distrib.worker_seconds,
                 result->distrib.merge_seconds,
                 result->distrib.frontier_nodes, result->distrib.retries);
    std::fclose(f);
    std::printf("# wrote %s\n", json_path.c_str());
  }

  fs::remove_all(work_dir);
  if (!keep_out) fs::remove_all(out_dir);
  if (!tuples_identical) {
    std::fprintf(stderr,
                 "FAIL: distributed tuples differ from single-process\n");
    return 1;
  }
  if (min_speedup > 0.0 && speedup < min_speedup) {
    std::fprintf(stderr,
                 "FAIL: distributed speedup %.2fx below gate %.2fx\n",
                 speedup, min_speedup);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace multiem::bench

int main(int argc, char** argv) { return multiem::bench::Main(argc, argv); }
