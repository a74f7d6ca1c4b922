/// \file ledger.cpp
/// multiem_ledger: one rep of one perf-ledger workload, printed as a single
/// JSON object on stdout. run.py starts a fresh process per rep (so peak RSS
/// is that rep's own) and aggregates the reps.
///
///   multiem_ledger <command> --seed=N --dir=DIR [--artifact=DIR] [--rep=N]
///                  [--trace=FILE] [--smoke]
///
/// Commands: prep (builds and saves the serving session of the two serve
/// workloads), person_serial, scale_ckpt, serve_read, serve_ingest. DIR is
/// the rep's scratch directory; the serve workloads read prep's artifact
/// from --artifact. The seed makes every input (see kCorpusSeed); the
/// library only ever sees generated tables (read back from CSV) or the
/// saved artifact. With --trace the rep injects the decorators of
/// instruments.h, adds a "layers" object, and writes a Chrome trace to
/// FILE. Unknown or malformed flags exit 2.
///
/// The tuned configs are frozen copies taken from bench/bench_common.h
/// (TunedConfig) and bench/bench_scale.cpp (ScaleConfig), so edits to those
/// benches cannot move the ledger.

#include <sys/resource.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "bench/ledger/instruments.h"
#include "bench/ledger/load.h"
#include "core/pipeline.h"
#include "core/registry.h"
#include "datagen/datasets.h"
#include "datagen/scale.h"
#include "embed/serialize.h"
#include "eval/metrics.h"
#include "table/csv.h"
#include "util/rng.h"

namespace multiem::ledger {
namespace {

namespace fs = std::filesystem;

/// Every corpus is generated from this frozen seed; --seed permutes the rows
/// of each source, draws the queries and sets the request schedule. The
/// quality metrics then differ between seeds only by what row order does to
/// the index and the merge, so they can carry tight regression bounds: with
/// a corpus per seed, tuple F1 spread by 2-3% between seeds.
constexpr uint64_t kCorpusSeed = 1;
constexpr size_t kK = 10;              // hits per serving request
constexpr size_t kReaders = 3;         // reader threads of every read phase
constexpr size_t kBuildThreads = 3;    // + the calling thread = 4 = nproc
constexpr size_t kServeSources = 4;    // Music sources in the session
constexpr size_t kIngestChunks = 3;    // AddTable calls of serve_ingest
constexpr size_t kQueries = 2048;      // drawn per rep; all are recall queries
constexpr size_t kReloadQueries = 32;
/// Set-up passes per rep, setup_s being their median. With one pass per rep
/// the set-up of one run's reps spread by 40-65%.
constexpr size_t kSetupRepeats = 5;
constexpr size_t kLayerQueries = 200;  // direct timed calls per layer

// ----------------------------------------------------------------- flags

struct Flags {
  std::string command;
  uint64_t seed = 0;
  bool has_seed = false;
  std::string dir;
  std::string artifact;
  std::string trace;
  int rep = 0;
  bool smoke = false;
};

bool ParseU64(const std::string& text, uint64_t* out) {
  if (text.empty() || text.size() > 19) return false;
  uint64_t v = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

/// Strict parser: every argument after the command must be a known
/// --key=value (or the bare --smoke); anything else is an error.
std::optional<Flags> ParseFlags(int argc, char** argv, std::string* error) {
  Flags flags;
  if (argc < 2) {
    *error = "missing command";
    return std::nullopt;
  }
  flags.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      flags.smoke = true;
      continue;
    }
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      *error = "malformed flag '" + arg + "' (expected --key=value)";
      return std::nullopt;
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    uint64_t number = 0;
    if (key == "seed" && ParseU64(value, &number)) {
      flags.seed = number;
      flags.has_seed = true;
    } else if (key == "rep" && ParseU64(value, &number) && number < 1000000) {
      flags.rep = static_cast<int>(number);
    } else if ((key == "dir" || key == "artifact" || key == "trace") &&
               !value.empty()) {
      (key == "dir" ? flags.dir
                    : key == "artifact" ? flags.artifact : flags.trace) = value;
    } else {
      *error = "unknown or malformed flag '" + arg + "'";
      return std::nullopt;
    }
  }
  if (!flags.has_seed) {
    *error = "--seed=N is required";
    return std::nullopt;
  }
  if (flags.dir.empty()) {
    *error = "--dir=DIR is required";
    return std::nullopt;
  }
  return flags;
}

// ----------------------------------------------------------------- sizes

/// Input sizes and phase lengths; --smoke shrinks everything so all four
/// workloads finish in seconds (a harness self-test, not a measurement).
/// A rep is sized so that run.py fits three fresh processes of each
/// workload into one measured run.
struct Sizes {
  double person_scale = 0.3;
  size_t scale_rows = 48'000;
  double music_scale = 0.5;
  size_t ingest_chunk = 400;
  double tail_rate = 2000.0, tail_s = 1.0;   // build workloads' read phase
  double read_rate = 4000.0, read_s = 2.0;   // serve_read open loop
  double closed_s = 1.0;                     // serve_read saturation
  double ingest_rate = 500.0, post_s = 2.0;  // serve_ingest
};

Sizes MakeSizes(bool smoke) {
  Sizes s;
  if (!smoke) return s;
  s.person_scale = 0.02;
  s.scale_rows = 8'000;
  s.music_scale = 0.05;
  s.ingest_chunk = 40;
  s.tail_s = s.read_s = s.closed_s = s.post_s = 0.3;
  return s;
}

// ---------------------------------------------------------- frozen configs

/// TunedConfig("person") / TunedConfig("music-2000") of bench_common.h: the
/// Section IV-A grid winners (both datasets share them).
core::MultiEmConfig TunedConfig(size_t threads) {
  core::MultiEmConfig config;
  config.k = 1;
  config.min_pts = 2;
  config.sample_ratio = 0.2;
  config.eps = 1.0f;
  config.m = 0.5f;
  config.gamma = 0.9;
  config.num_threads = threads;
  return config;
}

/// bench_scale.cpp's ScaleConfig(dim = 48): lean HNSW knobs for the
/// synthetic scale corpus.
core::MultiEmConfig ScaleConfig() {
  core::MultiEmConfig config;
  config.embedding_dim = 48;
  config.sample_ratio = 0.05;
  config.m = 0.5f;
  config.hnsw_m = 8;
  config.hnsw_ef_construction = 40;
  config.hnsw_ef_search = 32;
  config.num_threads = kBuildThreads;
  config.seed = 7;
  return config;
}

// --------------------------------------------------------------- report

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double Seconds(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

/// Everything one rep prints. Every call into the library is counted in
/// attempted/failed; a failure also records its status.
struct Report {
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, double> metrics;  // end-to-end, this rep
  std::map<std::string, double> info;     // sample counts, checks, timings
  std::map<std::string, std::string> text;
  std::map<std::string, double> layers;   // --trace only
  /// Latency of every measured read; run.py takes the latency percentiles
  /// over the reads of all timed reps pooled.
  std::vector<double> latencies_ms;

  bool Check(const util::Status& status, const std::string& what) {
    ++attempted;
    if (status.ok()) return true;
    ++failed;
    if (errors.size() < 8) errors.push_back(what + ": " + status.ToString());
    return false;
  }
  void CountReads(const ReadSummary& s) {
    attempted += s.count;
    failed += s.failed;
  }
  /// The measured reads of the rep: counts them and keeps their latencies.
  /// Returns their summary.
  ReadSummary MeasuredReads(const std::vector<Request>& requests) {
    const ReadSummary s = Summarize(requests);
    CountReads(s);
    for (const Request& r : requests) {
      latencies_ms.push_back(static_cast<double>(r.end_ns - r.due_ns) / 1e6);
    }
    info["reads"] = static_cast<double>(s.count);
    return s;
  }
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumbers(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [key, value] : values) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += (out.size() > 1 ? ", " : "") + JsonString(key) + ": " + buf;
  }
  return out + "}";
}

void Print(const Flags& flags, const Report& r) {
  std::string out = "{\"workload\": " + JsonString(flags.command) +
                    ", \"seed\": " + std::to_string(flags.seed) +
                    ", \"rep\": " + std::to_string(flags.rep) +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) +
                    ", \"errors\": [";
  for (size_t i = 0; i < r.errors.size(); ++i) {
    out += (i ? ", " : "") + JsonString(r.errors[i]);
  }
  out += "]";
  for (const auto& [key, value] : r.text) {
    out += ", " + JsonString(key) + ": " + JsonString(value);
  }
  out += ", \"metrics\": " + JsonNumbers(r.metrics);
  out += ", \"info\": " + JsonNumbers(r.info);
  if (!flags.trace.empty()) out += ", \"layers\": " + JsonNumbers(r.layers);
  out += ", \"latencies_ms\": [";
  for (size_t i = 0; i < r.latencies_ms.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.4f", i ? ", " : "", r.latencies_ms[i]);
    out += buf;
  }
  std::printf("%s\n", (out + "]}").c_str());
}

// ------------------------------------------------------------ digests

struct Fnv {
  uint64_t h = 0xcbf29ce484222325ULL;
  void Add(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
  }
  void Add(const std::string& s) {
    Add(s.data(), s.size());
    Add("\x1f", 1);
  }
  std::string Hex() const {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
    return buf;
  }
};

std::string TablesDigest(const std::vector<table::Table>& tables) {
  Fnv fnv;
  for (const table::Table& t : tables) {
    for (const std::string& name : t.schema().names()) fnv.Add(name);
    for (size_t row = 0; row < t.num_rows(); ++row) {
      for (const std::string& cell : t.row(row)) fnv.Add(cell);
    }
    fnv.Add("\x1e", 1);
  }
  return fnv.Hex();
}

std::string TuplesDigest(const eval::TupleSet& tuples) {
  Fnv fnv;
  for (const eval::Tuple& t : tuples.tuples()) {
    for (table::EntityId id : t) {
      const uint64_t packed = id.packed();
      fnv.Add(&packed, sizeof(packed));
    }
    fnv.Add("\x1e", 1);
  }
  return fnv.Hex();
}

size_t DirBytes(const fs::path& dir) {
  size_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

// ------------------------------------------------------------- inputs

/// Shuffles the rows of every table by `seed` and moves `truth` to the new
/// row ids.
void PermuteRows(uint64_t seed, std::vector<table::Table>& tables,
                 eval::TupleSet& truth) {
  util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 29);
  std::vector<std::vector<uint64_t>> new_row(tables.size());
  for (size_t s = 0; s < tables.size(); ++s) {
    std::vector<size_t> order(tables[s].num_rows());
    std::iota(order.begin(), order.end(), size_t{0});
    rng.Shuffle(order);
    table::Table shuffled(tables[s].name(), tables[s].schema());
    shuffled.Reserve(order.size());
    new_row[s].resize(order.size());
    for (size_t i = 0; i < order.size(); ++i) {
      shuffled.AppendRow(tables[s].row(order[i])).CheckOk();
      new_row[s][order[i]] = i;
    }
    tables[s] = std::move(shuffled);
  }
  std::vector<eval::Tuple> moved;
  for (const eval::Tuple& t : truth.tuples()) {
    eval::Tuple ids;
    for (table::EntityId id : t) {
      ids.emplace_back(id.source(), new_row[id.source()][id.row()]);
    }
    moved.push_back(std::move(ids));
  }
  truth = eval::TupleSet(std::move(moved));
}

/// `n` single-row query tables drawn by `seed` from the rows of `sources`.
std::vector<table::Table> DrawQueries(const std::vector<table::Table>& sources,
                                      size_t n, uint64_t seed) {
  util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  std::vector<table::Table> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const table::Table& t = sources[rng.NextBounded(sources.size())];
    table::Table one("query", t.schema());
    one.AppendRow(t.row(rng.NextBounded(t.num_rows()))).CheckOk();
    out.push_back(std::move(one));
  }
  return out;
}

/// The query rows as one table: the recall batch.
table::Table Batch(const std::vector<table::Table>& queries) {
  table::Table batch("batch", queries.front().schema());
  for (const table::Table& q : queries) batch.AppendRow(q.row(0)).CheckOk();
  return batch;
}

// ------------------------------------------------------------ pipeline

util::Result<core::MultiEmPipeline> MakePipeline(
    const core::MultiEmConfig& config, bool traced) {
  core::PipelineBuilder builder(config);
  if (traced) {
    auto encoder = core::TextEncoders().Create(config.encoder_name, config);
    auto index = core::IndexFactories().Create(config.index_name, config);
    auto pruner = core::Pruners().Create(config.pruner_name, config);
    if (!encoder.ok()) return encoder.status();
    if (!index.ok()) return index.status();
    if (!pruner.ok()) return pruner.status();
    builder.WithEncoder(std::make_unique<TracedEncoder>(std::move(*encoder)))
        .WithIndexFactory(
            std::make_unique<TracedIndexFactory>(std::move(*index)))
        .WithPruner(std::make_unique<TracedPruner>(std::move(*pruner)));
  }
  return builder.Build();
}

/// Runs the pipeline once with a serving session; records the run span and
/// wall/CPU time into `run_s`/`cpu_s`.
std::shared_ptr<core::Matcher> RunPipeline(
    const core::MultiEmPipeline& pipeline,
    const std::vector<table::Table>& tables, const std::string& checkpoint_dir,
    bool traced, Report& report, core::PipelineResult* result, double* run_s,
    double* cpu_s) {
  PhaseRecorder recorder;
  core::RunContext ctx;
  ctx.build_matcher = true;
  ctx.checkpoint_dir = checkpoint_dir;
  ctx.observer = traced ? &recorder : nullptr;
  const double cpu0 = CpuSeconds();
  const int64_t start = NowNs();
  util::Status status = pipeline.Run(tables, ctx, result);
  const int64_t end = NowNs();
  *run_s = Seconds(start, end);
  *cpu_s = CpuSeconds() - cpu0;
  if (traced) Tracer::Get().Record({"pipeline.run", start, end, 0, {}});
  if (!report.Check(status, "Run")) return nullptr;
  return result->matcher;
}

/// Generated tables go through CSV so the timed set-up is what a user pays
/// to start a run: read the sources and assemble the pipeline. setup_s is
/// the median of kSetupRepeats passes; the last pass is kept.
bool SetupFromCsv(const std::vector<table::Table>& generated,
                  const fs::path& dir, const core::MultiEmConfig& config,
                  bool traced, Report& report,
                  std::vector<table::Table>* tables,
                  std::optional<core::MultiEmPipeline>* pipeline) {
  std::vector<std::string> paths;
  for (const table::Table& t : generated) {
    paths.push_back((dir / (t.name() + ".csv")).string());
    if (!report.Check(table::WriteCsvFile(t, paths.back()), "WriteCsvFile")) {
      return false;
    }
  }
  std::vector<double> times;
  for (size_t pass = 0; pass < kSetupRepeats; ++pass) {
    tables->clear();
    pipeline->reset();
    const int64_t start = NowNs();
    for (size_t s = 0; s < paths.size(); ++s) {
      auto read = table::ReadCsvFile(paths[s]);
      if (!report.Check(read.status(), "ReadCsvFile")) return false;
      read->set_name(generated[s].name());
      tables->push_back(std::move(*read));
    }
    auto built = MakePipeline(config, traced);
    times.push_back(Seconds(start, NowNs()));
    if (!report.Check(built.status(), "Build")) return false;
    pipeline->emplace(std::move(*built));
  }
  report.metrics["setup_s"] = Median(times);
  report.info["csv_roundtrip_ok"] =
      TablesDigest(*tables) == TablesDigest(generated) ? 1.0 : 0.0;
  return true;
}

/// The serving layer, timed by direct calls outside the read path: encode
/// (serialize + encoder), index search at the oversampled k, and the whole
/// MatchRecords on the same query. What MatchRecords spends beyond the two
/// (hit filtering and ordering) is below what calls from outside can
/// resolve, so it is not reported on its own.
void MatcherLayers(const core::Matcher& matcher,
                   const std::vector<table::Table>& queries,
                   const ReadSummary& reads, double mean_evals,
                   Report& report) {
  const core::Matcher::Snapshot snap = matcher.snapshot();
  const size_t want = std::min(kK + snap.dead_slots(), snap.index().size());
  std::vector<double> encode_us, search_us, match_us;
  for (size_t i = 0; i < kLayerQueries && i < queries.size(); ++i) {
    const int64_t t0 = NowNs();
    const embed::EmbeddingMatrix vec =
        matcher.encoder().EncodeBatch(embed::SerializeTable(
            queries[i], matcher.selection().selected_columns));
    const int64_t t1 = NowNs();
    ann::SearchStats stats;
    snap.index().SearchWithStats(vec.Row(0), want, 0, &stats);
    const int64_t t2 = NowNs();
    auto hits = snap.MatchRecords(queries[i], kK);
    const int64_t t3 = NowNs();
    report.Check(hits.status(), "MatchRecords");
    encode_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    search_us.push_back(static_cast<double>(t2 - t1) / 1e3);
    match_us.push_back(static_cast<double>(t3 - t2) / 1e3);
  }
  auto& l = report.layers;
  l["core.matcher.encode_us"] = Median(encode_us);
  l["core.matcher.search_us"] = Median(search_us);
  l["core.matcher.match_us"] = Median(match_us);
  l["core.matcher.search_distance_evals"] = mean_evals;
  l["core.matcher.oversample_k"] = static_cast<double>(kK + snap.dead_slots());
  l["core.matcher.dead_slots"] = static_cast<double>(snap.dead_slots());
  l["core.matcher.queue_wait_ms"] = reads.queue_p99_ms;
  l["bench.generator_late_ms"] = reads.late_p99_ms;
  l.emplace("core.matcher.addtable_rows", 0.0);
  l.emplace("core.matcher.addtable_s", 0.0);
  l.emplace("core.matcher.ingest_read_p99_ms", 0.0);
  l.emplace("core.checkpoint.journal_bytes", 0.0);
  l.emplace("core.checkpoint.spill_dir_bytes", 0.0);
}

/// Open-loop reads at `rate` for `seconds`; fills the latency metrics.
/// Shared by every workload's read phase except serve_ingest's (which reads
/// around its writer).
ReadSummary ReadPhase(const core::Matcher& matcher,
                      const std::vector<table::Table>& queries, double rate,
                      double seconds, bool traced, Report& report,
                      double* mean_evals) {
  OpenLoop loop(matcher, queries, rate, kReaders, kK, traced);
  const int64_t start = NowNs();
  std::vector<Request> requests =
      loop.Finish(start + static_cast<int64_t>(seconds * 1e9));
  if (traced) Tracer::Get().Record({"serve.read", start, NowNs(), 0, {}});
  *mean_evals = loop.MeanDistanceEvals();
  return report.MeasuredReads(requests);
}

void Recall(const core::Matcher& matcher, const table::Table& batch,
            const std::string& name, Report& report) {
  bool ok = false;
  const double recall = RecallAtK(matcher, matcher.snapshot(), batch, kK, &ok);
  report.Check(ok ? util::Status::Ok()
                  : util::Status::Internal("recall batch failed"),
               "MatchRecords(recall)");
  report.info[name] = recall;
}

// ------------------------------------------------------------ workloads

/// Builds a session and serves it: person_serial and scale_ckpt differ only
/// in their corpus, config, and scale_ckpt's checkpoint + save + reload.
int BuildWorkload(const Flags& flags, const Sizes& sizes, Report& report) {
  const bool traced = !flags.trace.empty();
  const bool scale = flags.command == "scale_ckpt";
  const fs::path dir = flags.dir;

  // Inputs and ground truth: the frozen corpus, rows permuted by the seed.
  const int64_t gen_start = NowNs();
  std::vector<table::Table> generated;
  eval::TupleSet truth;
  core::MultiEmConfig config;
  if (scale) {
    datagen::ScaleCorpusConfig corpus;
    corpus.seed = kCorpusSeed;
    corpus.num_sources = 4;
    corpus.rows_per_source = sizes.scale_rows / corpus.num_sources;
    corpus.overlap = 0.3;
    datagen::ScaleCorpusGenerator gen(corpus);
    for (size_t s = 0; s < gen.num_sources(); ++s) {
      generated.push_back(gen.MaterializeSource(s));
    }
    // Row r of every source below the shared prefix is one entity.
    std::vector<eval::Tuple> tuples;
    for (size_t r = 0; r < gen.shared_rows(); ++r) {
      eval::Tuple t;
      for (uint32_t s = 0; s < gen.num_sources(); ++s) t.emplace_back(s, r);
      tuples.push_back(std::move(t));
    }
    truth = eval::TupleSet(std::move(tuples));
    config = ScaleConfig();
  } else {
    auto data = datagen::MakeDataset("person", sizes.person_scale, kCorpusSeed);
    if (!report.Check(data.status(), "MakeDataset")) return 1;
    generated = std::move(data->tables);
    truth = std::move(data->truth);
    config = TunedConfig(1);
  }
  PermuteRows(flags.seed, generated, truth);
  report.layers["datagen.gen_s"] = Seconds(gen_start, NowNs());
  report.text["input_digest"] = TablesDigest(generated);
  size_t rows = 0;
  for (const table::Table& t : generated) rows += t.num_rows();
  report.info["rows"] = static_cast<double>(rows);

  std::vector<table::Table> tables;
  std::optional<core::MultiEmPipeline> pipeline;
  if (!SetupFromCsv(generated, dir, config, traced, report, &tables,
                    &pipeline)) {
    return 1;
  }

  // The timed operation: Run (+ Save for scale_ckpt).
  const fs::path ckpt = dir / "ckpt";
  const fs::path artifact = dir / "artifact";
  core::PipelineResult result;
  double run_s = 0.0, cpu_s = 0.0;
  std::shared_ptr<core::Matcher> matcher =
      RunPipeline(*pipeline, tables, scale ? ckpt.string() : "", traced,
                  report, &result, &run_s, &cpu_s);
  if (matcher == nullptr) return 1;
  double save_s = 0.0;
  if (scale) {
    const double cpu0 = CpuSeconds();
    const int64_t start = NowNs();
    if (!report.Check(matcher->Save(artifact.string()), "Save")) return 1;
    save_s = Seconds(start, NowNs());
    cpu_s += CpuSeconds() - cpu0;
    if (traced) Tracer::Get().Record({"artifact.save", start, NowNs(), 0, {}});
  }
  report.info["wall_s"] = run_s + save_s;
  report.metrics["rows_per_s"] = static_cast<double>(rows) / (run_s + save_s);
  report.metrics["cpu_ms_per_row"] = cpu_s * 1e3 / static_cast<double>(rows);

  const eval::TupleSet predicted = result.ToTupleSet();
  report.metrics["tuple_f1"] = eval::EvaluateTuples(predicted, truth).f1;
  report.text["tuple_digest"] = TuplesDigest(predicted);
  report.info["tuples"] = static_cast<double>(predicted.size());

  const std::vector<table::Table> queries =
      DrawQueries(tables, kQueries, flags.seed);
  if (scale) {
    // The reloaded artifact must answer exactly like the in-memory session.
    const int64_t start = NowNs();
    auto reloaded = core::MultiEmPipeline::LoadArtifact(artifact.string());
    const int64_t loaded = NowNs();
    if (!report.Check(reloaded.status(), "LoadArtifact")) return 1;
    bool identical = true;
    for (size_t i = 0; i < kReloadQueries; ++i) {
      auto want = matcher->MatchRecords(queries[i], kK);
      auto got = reloaded->MatchRecords(queries[i], kK);
      if (i == 0) {
        report.layers["core.artifact.first_query_ms"] =
            Seconds(loaded, NowNs()) * 1e3;
      }
      report.Check(want.status(), "MatchRecords");
      report.Check(got.status(), "MatchRecords(reloaded)");
      identical = identical && want.ok() && got.ok() && *want == *got;
    }
    report.info["reload_identical"] = identical ? 1.0 : 0.0;
    report.layers["core.artifact.save_s"] = save_s;
    report.layers["core.artifact.bytes"] =
        static_cast<double>(DirBytes(artifact));
    report.layers["core.artifact.load_s"] = Seconds(start, loaded);
    const size_t spill = DirBytes(ckpt / "spill");
    report.layers["core.checkpoint.spill_dir_bytes"] =
        static_cast<double>(spill);
    report.layers["core.checkpoint.journal_bytes"] =
        static_cast<double>(DirBytes(ckpt) - spill);
  }

  double mean_evals = 0.0;
  const ReadSummary reads = ReadPhase(*matcher, queries, sizes.tail_rate,
                                      sizes.tail_s, traced, report,
                                      &mean_evals);
  Recall(*matcher, Batch(queries), "recall", report);
  report.metrics["recall_at_10"] = report.info["recall"];
  report.metrics["peak_rss_mb"] = PeakRssMb();

  if (traced) {
    // person_serial neither saves nor loads an artifact.
    for (const char* name : {"core.artifact.save_s", "core.artifact.bytes",
                             "core.artifact.load_s",
                             "core.artifact.first_query_ms"}) {
      report.layers.emplace(name, 0.0);
    }
    MatcherLayers(*matcher, queries, reads, mean_evals, report);
    for (const auto& [name, value] :
         PipelineLayers(Tracer::Get().Collect(), config.num_threads)) {
      report.layers[name] = value;
    }
  }
  return 0;
}

/// The serve workloads' corpus: Music-2000 (scaled), rows permuted by the
/// seed. The session holds the first kServeSources sources; the last is
/// held out for serve_ingest.
util::Result<datagen::MultiSourceBenchmark> ServeCorpus(const Flags& flags,
                                                        const Sizes& sizes) {
  auto data = datagen::MakeDataset("music-2000", sizes.music_scale, kCorpusSeed);
  if (!data.ok()) return data;
  if (data->tables.size() != kServeSources + 1) {
    return util::Status::Internal("music-2000 no longer has 5 sources");
  }
  PermuteRows(flags.seed, data->tables, data->truth);
  return data;
}

/// Untimed set-up of the serve workloads: build the session and save it.
int Prep(const Flags& flags, const Sizes& sizes, Report& report) {
  const bool traced = !flags.trace.empty();
  const int64_t gen_start = NowNs();
  auto data = ServeCorpus(flags, sizes);
  if (!report.Check(data.status(), "MakeDataset")) return 1;
  std::vector<table::Table> sources(data->tables.begin(),
                                    data->tables.begin() + kServeSources);
  report.layers["datagen.gen_s"] = Seconds(gen_start, NowNs());
  report.text["input_digest"] = TablesDigest(data->tables);

  const core::MultiEmConfig config = TunedConfig(kBuildThreads);
  auto pipeline = MakePipeline(config, traced);
  if (!report.Check(pipeline.status(), "Build")) return 1;
  core::PipelineResult result;
  double run_s = 0.0, cpu_s = 0.0;
  std::shared_ptr<core::Matcher> matcher = RunPipeline(
      *pipeline, sources, "", traced, report, &result, &run_s, &cpu_s);
  if (matcher == nullptr) return 1;
  report.info["run_s"] = run_s;
  report.info["items"] = static_cast<double>(matcher->num_items());
  const fs::path artifact = fs::path(flags.dir) / "artifact";
  const int64_t start = NowNs();
  if (!report.Check(matcher->Save(artifact.string()), "Save")) return 1;
  if (traced) {
    report.layers["core.artifact.save_s"] = Seconds(start, NowNs());
    report.layers["core.artifact.bytes"] =
        static_cast<double>(DirBytes(artifact));
    for (const auto& [name, value] :
         PipelineLayers(Tracer::Get().Collect(), config.num_threads)) {
      report.layers[name] = value;
    }
  }
  return 0;
}

/// Truth tuples restricted to the entities a session holds: members of
/// sources < kServeSources keep their ids; held-out row r < ingested rows
/// became row r % chunk of the chunk's own source; the rest are dropped.
eval::TupleSet SessionTruth(const eval::TupleSet& truth, size_t ingested_rows,
                            size_t chunk) {
  std::vector<eval::Tuple> out;
  for (const eval::Tuple& t : truth.tuples()) {
    eval::Tuple kept;
    for (table::EntityId id : t) {
      if (id.source() < kServeSources) {
        kept.push_back(id);
      } else if (id.row() < ingested_rows) {
        kept.emplace_back(
            static_cast<uint32_t>(kServeSources + id.row() / chunk),
            id.row() % chunk);
      }
    }
    out.push_back(std::move(kept));
  }
  return eval::TupleSet(std::move(out));
}

int ServeWorkload(const Flags& flags, const Sizes& sizes, Report& report) {
  const bool traced = !flags.trace.empty();
  const bool ingest = flags.command == "serve_ingest";
  if (flags.artifact.empty()) {
    report.Check(util::Status::InvalidArgument("--artifact=DIR is required"),
                 "flags");
    return 2;
  }
  const int64_t gen_start = NowNs();
  auto data = ServeCorpus(flags, sizes);
  if (!report.Check(data.status(), "MakeDataset")) return 1;
  const std::vector<table::Table> sources(
      data->tables.begin(), data->tables.begin() + kServeSources);
  const table::Table& held_out = data->tables.back();
  const std::vector<table::Table> queries =
      DrawQueries(sources, kQueries, flags.seed);
  report.layers["datagen.gen_s"] = Seconds(gen_start, NowNs());
  report.text["input_digest"] = TablesDigest(data->tables);

  // Set-up: load the artifact and answer the first query. setup_s is the
  // median of kSetupRepeats passes; the last session is kept.
  std::vector<double> setups, loads, firsts;
  std::optional<core::Matcher> opened;
  for (size_t pass = 0; pass < kSetupRepeats; ++pass) {
    opened.reset();
    const int64_t start = NowNs();
    auto loaded = core::MultiEmPipeline::LoadArtifact(flags.artifact);
    const int64_t mid = NowNs();
    if (!report.Check(loaded.status(), "LoadArtifact")) return 1;
    opened.emplace(std::move(*loaded));
    report.Check(opened->MatchRecords(queries[0], kK).status(),
                 "MatchRecords(first)");
    const int64_t end = NowNs();
    setups.push_back(Seconds(start, end));
    loads.push_back(Seconds(start, mid));
    firsts.push_back(Seconds(mid, end) * 1e3);
  }
  core::Matcher& matcher = *opened;
  report.metrics["setup_s"] = Median(setups);
  report.layers["core.artifact.load_s"] = Median(loads);
  report.layers["core.artifact.first_query_ms"] = Median(firsts);

  const table::Table batch = Batch(queries);
  Recall(matcher, batch, "recall_pre", report);

  ReadSummary reads;
  double mean_evals = 0.0;
  size_t ingested = 0;
  if (!ingest) {
    reads = ReadPhase(matcher, queries, sizes.read_rate, sizes.read_s, traced,
                      report, &mean_evals);
    report.metrics["recall_at_10"] = report.info["recall_pre"];
    // Saturation: back-to-back requests from every reader.
    size_t failed = 0;
    const double cpu0 = CpuSeconds();
    const int64_t start = NowNs();
    const size_t done = ClosedLoop(matcher, queries, kReaders, kK,
                                   sizes.closed_s, &failed);
    const int64_t end = NowNs();
    const double cpu_s = CpuSeconds() - cpu0;
    if (traced) Tracer::Get().Record({"serve.saturate", start, end, 0, {}});
    report.attempted += done + failed;
    report.failed += failed;
    report.info["saturation_reads"] = static_cast<double>(done);
    report.metrics["rows_per_s"] =
        static_cast<double>(done) / Seconds(start, end);
    report.metrics["cpu_ms_per_row"] =
        cpu_s * 1e3 / static_cast<double>(std::max<size_t>(done, 1));
  } else {
    // One writer (this thread, no pool) ingests held-out chunks under new
    // source names while the readers keep their schedule; then more reads.
    if (held_out.num_rows() < kIngestChunks * sizes.ingest_chunk) {
      report.Check(util::Status::Internal("held-out source too small"),
                   "MakeDataset");
      return 1;
    }
    OpenLoop loop(matcher, queries, sizes.ingest_rate, kReaders, kK, traced);
    double add_s = 0.0, add_cpu = 0.0;
    const int64_t ingest_start = NowNs();
    for (size_t c = 0; c < kIngestChunks; ++c) {
      table::Table chunk("ingest_" + std::to_string(c), held_out.schema());
      for (size_t r = 0; r < sizes.ingest_chunk; ++r) {
        chunk.AppendRow(held_out.row(c * sizes.ingest_chunk + r)).CheckOk();
      }
      const double cpu0 = ThreadCpuSeconds();
      const int64_t start = NowNs();
      const util::Status added = matcher.AddTable(chunk, nullptr);
      const int64_t end = NowNs();
      add_cpu += ThreadCpuSeconds() - cpu0;
      add_s += Seconds(start, end);
      if (traced) Tracer::Get().Record({"ingest.add_table", start, end, 0, {}});
      if (report.Check(added, "AddTable")) ingested += chunk.num_rows();
    }
    const int64_t ingest_end = NowNs();
    std::vector<Request> all =
        loop.Finish(ingest_end + static_cast<int64_t>(sizes.post_s * 1e9));
    mean_evals = loop.MeanDistanceEvals();
    std::vector<Request> during, post;
    for (const Request& r : all) {
      (r.due_ns < ingest_end ? during : post).push_back(r);
    }
    const ReadSummary during_reads = Summarize(during);
    report.CountReads(during_reads);
    reads = report.MeasuredReads(post);
    report.info["reads_during_ingest"] = static_cast<double>(during.size());
    report.info["wall_s"] = Seconds(ingest_start, ingest_end);
    report.metrics["rows_per_s"] = static_cast<double>(ingested) / add_s;
    report.metrics["cpu_ms_per_row"] =
        add_cpu * 1e3 / static_cast<double>(std::max<size_t>(ingested, 1));
    Recall(matcher, batch, "recall_post", report);
    report.metrics["recall_at_10"] = report.info["recall_post"];
    report.layers["core.matcher.addtable_rows"] = static_cast<double>(ingested);
    report.layers["core.matcher.addtable_s"] =
        add_s / static_cast<double>(kIngestChunks);
    report.layers["core.matcher.ingest_read_p99_ms"] = during_reads.p99_ms;
  }

  const eval::TupleSet truth = SessionTruth(
      data->truth, ingested, std::max<size_t>(sizes.ingest_chunk, 1));
  const eval::TupleSet session = matcher.Tuples();
  report.metrics["tuple_f1"] = eval::EvaluateTuples(session, truth).f1;
  report.info["tuples"] = static_cast<double>(session.size());
  report.metrics["peak_rss_mb"] = PeakRssMb();
  if (traced) MatcherLayers(matcher, queries, reads, mean_evals, report);
  return 0;
}

int Main(int argc, char** argv) {
#if defined(__GLIBC__)
  // Pins glibc's mmap threshold at its default value. Left dynamic, it rises
  // after a large block is freed, and whether later large buffers go back to
  // the system then depends on allocation order: serve_ingest's peak RSS
  // moved between 98 and 111 MB on one input. Pinned, it read 83.4-83.7 MB
  // and peak_rss_mb follows the live set.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
  std::string error;
  std::optional<Flags> flags = ParseFlags(argc, argv, &error);
  static const char* kCommands[] = {"prep", "person_serial", "scale_ckpt",
                                    "serve_read", "serve_ingest"};
  if (flags && std::find(std::begin(kCommands), std::end(kCommands),
                         flags->command) == std::end(kCommands)) {
    error = "unknown command '" + flags->command + "'";
    flags.reset();
  }
  if (!flags) {
    std::fprintf(stderr,
                 "multiem_ledger: %s\nusage: multiem_ledger "
                 "{prep|person_serial|scale_ckpt|serve_read|serve_ingest} "
                 "--seed=N --dir=DIR [--artifact=DIR] [--rep=N] "
                 "[--trace=FILE] [--smoke]\n",
                 error.c_str());
    return 2;
  }
  std::error_code ec;
  fs::create_directories(flags->dir, ec);
  if (ec) {
    std::fprintf(stderr, "multiem_ledger: cannot create %s\n",
                 flags->dir.c_str());
    return 1;
  }
  const Sizes sizes = MakeSizes(flags->smoke);
  Report report;
  const int64_t start = NowNs();
  int code = 0;
  if (flags->command == "prep") {
    code = Prep(*flags, sizes, report);
  } else if (flags->command == "serve_read" ||
             flags->command == "serve_ingest") {
    code = ServeWorkload(*flags, sizes, report);
  } else {
    code = BuildWorkload(*flags, sizes, report);
  }
  if (!flags->trace.empty()) {
    Tracer::Get().Record({"rep." + flags->command, start, NowNs(), 0, {}});
    report.Check(Tracer::Get().WriteChromeTrace(flags->trace, flags->rep),
                 "WriteChromeTrace");
  }
  Print(*flags, report);
  return code != 0 ? code : (report.failed == 0 ? 0 : 1);
}

}  // namespace
}  // namespace multiem::ledger

int main(int argc, char** argv) { return multiem::ledger::Main(argc, argv); }
