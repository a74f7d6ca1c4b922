// End-to-end CSV workflow: read source tables from CSV files, match them,
// and write the integrated result back to CSV — the shape of a production
// deployment of MultiEM, including the run-session surface: a
// PipelineObserver streaming per-phase / per-merge-level progress to stderr
// and a CancellationToken enforcing a wall-clock budget.
//
//   $ ./examples/csv_pipeline [dir] [budget_seconds]
//
// With no arguments the example first writes demo CSVs into a temp
// directory so it is runnable out of the box; point `dir` at your own
// directory of same-schema CSV files to match real data (pass "-" for the
// demo corpus when you only want to set a budget). The output
// `matched_tuples.csv` has one row per (group, member) with a group id; a
// run that exceeds `budget_seconds` is cancelled and writes nothing.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "datagen/person.h"
#include "table/csv.h"

using namespace multiem;

namespace {

// Streams run progress to stderr — what a job runner would ship to its log
// collector. All callbacks fire on the thread that called Run().
class StderrProgress : public core::PipelineObserver {
 public:
  void OnPhaseStart(std::string_view phase) override {
    std::fprintf(stderr, "[run] phase %.*s ...\n",
                 static_cast<int>(phase.size()), phase.data());
  }
  void OnPhaseEnd(std::string_view phase, double seconds) override {
    std::fprintf(stderr, "[run] phase %.*s done in %.2fs\n",
                 static_cast<int>(phase.size()), phase.data(), seconds);
  }
  void OnMergeLevel(const core::MergeLevelProgress& p) override {
    std::fprintf(stderr,
                 "[run]   merge level %zu: %zu tables -> %zu "
                 "(%zu pairs, %zu mutual matches)\n",
                 p.level, p.tables_in, p.tables_out, p.pairs_merged,
                 p.mutual_pairs);
  }
};

// Writes a small person-deduplication demo corpus as CSV files.
std::vector<std::string> WriteDemoCsvs(const std::string& dir) {
  datagen::PersonConfig config;
  config.num_entities = 400;
  datagen::MultiSourceBenchmark bench = datagen::GeneratePerson(config);
  std::vector<std::string> paths;
  for (size_t s = 0; s < bench.tables.size(); ++s) {
    std::string path = dir + "/person_source_" + std::to_string(s) + ".csv";
    table::WriteCsvFile(bench.tables[s], path).CheckOk();
    paths.push_back(path);
  }
  return paths;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  std::string out_dir;
  if (argc > 1 && std::string(argv[1]) != "-") {
    out_dir = argv[1];
    if (!std::filesystem::is_directory(out_dir)) {
      std::fprintf(stderr, "not a directory: %s\n", out_dir.c_str());
      return 1;
    }
    for (const auto& entry : std::filesystem::directory_iterator(argv[1])) {
      if (entry.path().extension() == ".csv") {
        paths.push_back(entry.path().string());
      }
    }
    std::sort(paths.begin(), paths.end());
  } else {
    out_dir = (std::filesystem::temp_directory_path() / "multiem_demo")
                  .string();
    std::filesystem::create_directories(out_dir);
    paths = WriteDemoCsvs(out_dir);
    std::printf("wrote demo corpus to %s\n", out_dir.c_str());
  }
  if (paths.size() < 2) {
    std::fprintf(stderr, "need at least 2 CSV files, found %zu\n",
                 paths.size());
    return 1;
  }

  // Load.
  std::vector<table::Table> tables;
  for (const std::string& path : paths) {
    auto t = table::ReadCsvFile(path);
    t.status().CheckOk();
    std::printf("loaded %-50s %6zu rows\n", path.c_str(), t->num_rows());
    tables.push_back(std::move(*t));
  }

  // Match. The builder assembles the pipeline once (validating the config
  // and resolving encoder/index/pruner from the registries); the run session
  // attaches the progress observer and a wall-clock budget via the
  // cancellation token.
  core::MultiEmConfig config;
  config.m = 0.5f;
  config.num_threads = 0;  // use every core
  auto pipeline = core::PipelineBuilder(config).Build();
  pipeline.status().CheckOk();

  double budget_seconds = 0.0;
  if (argc > 2) {
    char* end = nullptr;
    budget_seconds = std::strtod(argv[2], &end);
    if (end == argv[2] || *end != '\0' || budget_seconds < 0.0) {
      std::fprintf(stderr, "invalid budget_seconds: %s\n", argv[2]);
      return 1;
    }
  }
  core::CancellationToken cancel;
  std::atomic<bool> finished{false};
  std::thread watchdog;
  if (budget_seconds > 0.0) {
    watchdog = std::thread([&] {
      util::WallTimer timer;
      while (!finished.load()) {
        if (timer.ElapsedSeconds() > budget_seconds) {
          cancel.Cancel();
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });
  }

  StderrProgress progress;
  core::RunContext ctx;
  ctx.observer = &progress;
  ctx.cancel = &cancel;
  core::PipelineResult run;
  util::Status status = pipeline->Run(tables, ctx, &run);
  finished.store(true);
  if (watchdog.joinable()) watchdog.join();
  if (status.code() == util::StatusCode::kCancelled) {
    std::fprintf(stderr,
                 "cancelled after %.2fs budget (completed phases: %.2fs of "
                 "work); no output written\n",
                 budget_seconds, run.timings.TotalSeconds());
    return 2;
  }
  status.CheckOk();
  std::printf("\nmatched %zu groups in %.2fs\n", run.tuples.size(),
              run.timings.TotalSeconds());

  // Write one CSV: group_id, source_file, row, <original columns...>.
  std::vector<std::string> out_columns = {"group_id", "source", "row"};
  for (const std::string& name : tables[0].schema().names()) {
    out_columns.push_back(name);
  }
  table::Table out("matched", table::Schema(out_columns));
  for (size_t g = 0; g < run.tuples.size(); ++g) {
    for (auto id : run.tuples[g]) {
      std::vector<std::string> cells = {std::to_string(g),
                                        paths[id.source()],
                                        std::to_string(id.row())};
      for (size_t c = 0; c < tables[id.source()].num_columns(); ++c) {
        cells.emplace_back(tables[id.source()].cell(id.row(), c));
      }
      out.AppendRow(std::move(cells)).CheckOk();
    }
  }
  std::string out_path = out_dir + "/matched_tuples.csv";
  table::WriteCsvFile(out, out_path).CheckOk();
  std::printf("wrote %s (%zu rows)\n", out_path.c_str(), out.num_rows());
  return 0;
}
