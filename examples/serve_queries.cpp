// Build a pipeline artifact once, then serve entity-match queries from a
// fresh process — the save/load path of docs/API.md "Persistence & serving".
//
//   $ ./examples/serve_queries build /tmp/multiem_artifact
//   $ ./examples/serve_queries shard-build /tmp/multiem_shard --workers=4
//   $ echo 'apple iphone 8 plus 64 gb|silver' |
//       ./examples/serve_queries serve /tmp/multiem_artifact
//   $ ./examples/serve_queries serve /tmp/multiem_artifact 3 --batch
//   $ ./examples/serve_queries addtable /tmp/multiem_artifact new_rows.csv
//   $ ./examples/serve_queries resave /tmp/multiem_artifact /tmp/copy
//
// `build` runs MultiEM over the Figure-1 demo corpus (the quickstart tables)
// with RunContext::build_matcher set and persists the resulting Matcher —
// config, fitted encoder, entity table, serving index — as one directory.
// `shard-build` produces the same artifact through distrib::Coordinator:
// the corpus is partitioned across N forked worker processes and the saved
// bytes are identical to `build`'s (CI cmp-gates this).
// `serve` restores the artifact (no refit, no re-match) and answers one
// query per stdin line; fields are separated by '|' in schema order,
// missing trailing fields stay empty. With `--batch`, all stdin lines are
// collected into one table and answered by a single batched MatchRecords
// call fanned out across a thread pool, with the per-query ANN counters of
// the MatchObserver hooks printed at the end — output per query is
// otherwise identical to the line-at-a-time mode. `addtable` live-ingests a
// CSV (header = schema) as a new source through the epoch-swapped
// incremental path and saves the grown artifact back in place. `resave`
// loads and immediately re-saves: artifacts are deterministic, so the copy
// is byte-identical to the source (CI gates on this).

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/artifact.h"
#include "core/pipeline.h"
#include "distrib/coordinator.h"
#include "table/csv.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

using multiem::core::Matcher;
using multiem::core::MultiEmConfig;
using multiem::core::MultiEmPipeline;
using multiem::core::PipelineBuilder;
using multiem::core::PipelineResult;
using multiem::core::RunContext;
using multiem::table::Schema;
using multiem::table::Table;

namespace {

// The Figure-1 demo corpus (same rows as examples/quickstart.cpp).
std::vector<Table> DemoTables() {
  Schema schema({"title", "color"});
  std::vector<Table> tables;
  {
    Table t("source_a", schema);
    t.AppendRow({"apple iphone 8 plus 64gb", "silver"}).CheckOk();
    t.AppendRow({"samsung galaxy s9 dual sim 64gb", "black"}).CheckOk();
    t.AppendRow({"google pixel 3 xl 128gb", "white"}).CheckOk();
    tables.push_back(std::move(t));
  }
  {
    Table t("source_b", schema);
    t.AppendRow({"apple iphone 8 plus 5.5 64gb 4g unlocked sim free", ""})
        .CheckOk();
    t.AppendRow({"galaxy s9 duos 64 gb by samsung", "midnight black"})
        .CheckOk();
    tables.push_back(std::move(t));
  }
  {
    Table t("source_c", schema);
    t.AppendRow({"apple iphone 8 plus 14 cm 5.5 64 gb 12 mp ios 11", "silver"})
        .CheckOk();
    t.AppendRow({"pixel 3 xl google smartphone 128 gb", "clearly white"})
        .CheckOk();
    tables.push_back(std::move(t));
  }
  {
    Table t("source_d", schema);
    t.AppendRow({"apple iphone 8 plus 5.5 single sim 4g 64gb", "silver"})
        .CheckOk();
    t.AppendRow({"sony wh-1000xm3 wireless headphones", "black"}).CheckOk();
    tables.push_back(std::move(t));
  }
  return tables;
}

// The demo pipeline config; num_threads stays at its serial default, so
// every build of this corpus — single-process or shard-build at any worker
// count — produces a byte-identical artifact.
MultiEmConfig DemoConfig() {
  MultiEmConfig config;
  config.sample_ratio = 1.0;
  config.m = 0.72f;
  config.eps = 1.2f;
  return config;
}

int Build(const std::string& dir) {
  MultiEmConfig config = DemoConfig();
  auto pipeline = PipelineBuilder(config).Build();
  pipeline.status().CheckOk();

  RunContext ctx;
  ctx.build_matcher = true;  // capture the run as a serving session
  PipelineResult result;
  pipeline->Run(DemoTables(), ctx, &result).CheckOk();
  result.matcher->Save(dir).CheckOk();

  std::printf(
      "saved artifact to %s: %zu entity items over %zu sources, "
      "%zu matched tuples\n",
      dir.c_str(), result.matcher->num_items(),
      result.matcher->source_names().size(), result.tuples.size());
  return 0;
}

// Same demo corpus, built by N forked worker processes through
// distrib::Coordinator instead of the in-process pipeline. The saved
// artifact is byte-identical to `build`'s (CI cmp-gates this): every merge
// node is a pure function of its children, so the process boundary changes
// wall clock, never bytes.
int ShardBuild(const std::string& dir, size_t workers) {
  multiem::distrib::CoordinatorOptions options;
  options.num_workers = workers;
  options.work_dir = dir + "_shards";
  options.build_matcher = true;
  multiem::distrib::Coordinator coordinator(DemoConfig(), options);
  auto result = coordinator.Build(DemoTables());
  if (!result.ok()) {
    std::fprintf(stderr, "shard-build failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  result->run.matcher->Save(dir).CheckOk();
  std::printf(
      "shard-built artifact at %s with %zu worker processes: %zu entity "
      "items over %zu sources, %zu matched tuples\n",
      dir.c_str(), result->distrib.workers, result->run.matcher->num_items(),
      result->run.matcher->source_names().size(), result->run.tuples.size());
  return 0;
}

// One query's hits in the fixed serve output format. Resolving members
// through the Snapshot keeps item ids and member lists from one epoch even
// if a writer were active.
void PrintHits(const Matcher& matcher, const Matcher::Snapshot& snap,
               const std::string& line,
               const std::vector<multiem::core::RecordMatch>& hits,
               const std::vector<Table>& demo) {
  std::printf("query: %s\n", line.c_str());
  for (const auto& hit : hits) {
    const auto& members = snap.item_members(hit.item);
    const bool is_match = hit.distance <= matcher.config().m;
    std::printf("  d=%.4f %s {", hit.distance,
                is_match ? "MATCH   " : "no-match");
    for (size_t i = 0; i < members.size(); ++i) {
      std::printf("%s%s", i == 0 ? "" : ", ", members[i].ToString().c_str());
    }
    std::printf("}\n");
    for (auto id : members) {
      if (id.source() < demo.size()) {
        std::printf("           [%s] %s\n", demo[id.source()].name().c_str(),
                    std::string(demo[id.source()].cell(id.row(), 0)).c_str());
      }
    }
  }
}

// Accumulates the per-query ANN counters of a batched MatchRecords call.
class StatsObserver : public multiem::core::MatchObserver {
 public:
  void OnQueryMatched(size_t, const multiem::core::MatchQueryStats& s)
      override {
    visited_ += static_cast<double>(s.visited);
    evals_ += static_cast<double>(s.distance_evals);
    ++queries_;
  }
  void OnBatchMatched(size_t, double seconds) override { seconds_ = seconds; }

  void Print() const {
    std::printf("batched %.0f queries in %.3fms: mean visited %.1f, "
                "mean distance evals %.1f\n",
                queries_, seconds_ * 1e3,
                queries_ ? visited_ / queries_ : 0.0,
                queries_ ? evals_ / queries_ : 0.0);
  }

 private:
  double visited_ = 0.0;
  double evals_ = 0.0;
  double queries_ = 0.0;
  double seconds_ = 0.0;
};

int Serve(const std::string& dir, size_t k, bool batch) {
  auto matcher = MultiEmPipeline::LoadArtifact(dir);
  if (!matcher.ok()) {
    std::fprintf(stderr, "cannot load artifact: %s\n",
                 matcher.status().ToString().c_str());
    return 1;
  }
  const std::vector<std::string>& schema = matcher->schema_names();
  std::printf("loaded %s: %zu items, %zu sources, schema (", dir.c_str(),
              matcher->num_items(), matcher->source_names().size());
  for (size_t c = 0; c < schema.size(); ++c) {
    std::printf("%s%s", c == 0 ? "" : "|", schema[c].c_str());
  }
  std::printf("); reading queries from stdin\n");

  // If this artifact came from the demo corpus, resolve member ids back to
  // record text; a real deployment would look members up in its own store.
  std::vector<Table> demo;
  bool have_demo = true;
  {
    std::vector<Table> candidate = DemoTables();
    if (candidate.size() == matcher->source_names().size()) {
      for (size_t s = 0; s < candidate.size(); ++s) {
        if (candidate[s].name() != matcher->source_names()[s]) {
          have_demo = false;
        }
      }
    } else {
      have_demo = false;
    }
    if (have_demo) demo = std::move(candidate);
  }

  const Matcher::Snapshot snap = matcher->snapshot();
  std::vector<std::string> lines;
  Table batch_queries("stdin", Schema(schema));
  std::string line;
  while (std::getline(std::cin, line)) {
    if (multiem::util::Trim(line).empty()) continue;
    std::vector<std::string> cells;
    for (const std::string& field : multiem::util::Split(line, '|')) {
      cells.push_back(std::string(multiem::util::Trim(field)));
    }
    cells.resize(schema.size());  // missing trailing fields stay empty

    if (batch) {  // collect now, answer with one fanned-out call below
      lines.push_back(line);
      batch_queries.AppendRow(std::move(cells)).CheckOk();
      continue;
    }

    Table query("stdin", Schema(schema));
    query.AppendRow(std::move(cells)).CheckOk();
    auto matches = snap.MatchRecords(query, k);
    if (!matches.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   matches.status().ToString().c_str());
      return 1;
    }
    PrintHits(*matcher, snap, line, (*matches)[0], demo);
  }

  if (batch && batch_queries.num_rows() > 0) {
    multiem::util::ThreadPool pool(0);  // 0 = hardware concurrency
    StatsObserver stats;
    multiem::core::MatchOptions options;
    options.k = k;
    options.pool = &pool;
    options.observer = &stats;
    auto matches = snap.MatchRecords(batch_queries, options);
    if (!matches.ok()) {
      std::fprintf(stderr, "batch failed: %s\n",
                   matches.status().ToString().c_str());
      return 1;
    }
    for (size_t row = 0; row < lines.size(); ++row) {
      PrintHits(*matcher, snap, lines[row], (*matches)[row], demo);
    }
    stats.Print();
  }
  return 0;
}

// Live ingest: parse the CSV (header row = schema), AddTable it through the
// incremental epoch-swap path, and persist the grown session in place.
int AddTableCsv(const std::string& dir, const std::string& csv_path,
                std::string source_name) {
  auto matcher = MultiEmPipeline::LoadArtifact(dir);
  if (!matcher.ok()) {
    std::fprintf(stderr, "cannot load artifact: %s\n",
                 matcher.status().ToString().c_str());
    return 1;
  }
  auto parsed = multiem::table::ReadCsvFile(csv_path);
  if (!parsed.ok()) {
    std::fprintf(stderr, "cannot read %s: %s\n", csv_path.c_str(),
                 parsed.status().ToString().c_str());
    return 1;
  }
  if (source_name.empty()) {  // default: file name without dir/extension
    source_name = csv_path;
    if (size_t slash = source_name.find_last_of('/');
        slash != std::string::npos) {
      source_name = source_name.substr(slash + 1);
    }
    if (size_t dot = source_name.find_last_of('.');
        dot != std::string::npos && dot > 0) {
      source_name = source_name.substr(0, dot);
    }
  }
  Table table = std::move(*parsed);
  table.set_name(source_name);

  const uint64_t before = matcher->epoch();
  multiem::util::ThreadPool pool(0);
  if (auto status = matcher->AddTable(table, &pool); !status.ok()) {
    std::fprintf(stderr, "AddTable failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  matcher->Save(dir).CheckOk();

  const Matcher::Snapshot snap = matcher->snapshot();
  std::printf("ingested %zu rows as source '%s': epoch %llu -> %llu, "
              "%zu items, %zu retired slots; artifact updated in place\n",
              table.num_rows(), source_name.c_str(),
              static_cast<unsigned long long>(before),
              static_cast<unsigned long long>(snap.epoch()),
              snap.num_items(), snap.dead_slots());
  return 0;
}

int Resave(const std::string& src, const std::string& dst) {
  auto matcher = MultiEmPipeline::LoadArtifact(src);
  if (!matcher.ok()) {
    std::fprintf(stderr, "cannot load artifact: %s\n",
                 matcher.status().ToString().c_str());
    return 1;
  }
  matcher->Save(dst).CheckOk();
  std::printf("re-saved %s -> %s (byte-identical by construction)\n",
              src.c_str(), dst.c_str());
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: serve_queries build    <dir>        run the demo "
               "pipeline, save the artifact\n"
               "       serve_queries shard-build <dir> [--workers=N]\n"
               "                 same corpus built by N forked worker "
               "processes; the saved\n"
               "                 artifact is byte-identical to `build`'s\n"
               "       serve_queries serve    <dir> [k] [--batch]\n"
               "                 load the artifact, answer stdin queries "
               "(default k=3); --batch\n"
               "                 answers all lines with one pooled "
               "MatchRecords call\n"
               "       serve_queries addtable <dir> <csv> [name]\n"
               "                 live-ingest a CSV as a new source and save "
               "the artifact in place\n"
               "       serve_queries resave   <src> <dst>  load + save again "
               "(byte-identity check)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc >= 2 ? argv[1] : "";
  if (mode == "build" && argc == 3) return Build(argv[2]);
  if (mode == "shard-build" && (argc == 3 || argc == 4)) {
    size_t workers = 2;
    if (argc == 4) {
      const std::string arg = argv[3];
      const std::string prefix = "--workers=";
      if (arg.rfind(prefix, 0) != 0) return Usage();
      char* end = nullptr;
      const unsigned long parsed =
          std::strtoul(arg.c_str() + prefix.size(), &end, 10);
      if (*end != '\0' || parsed == 0 || parsed > 256) return Usage();
      workers = parsed;
    }
    return ShardBuild(argv[2], workers);
  }
  if (mode == "serve" && argc >= 3 && argc <= 5) {
    size_t k = 3;
    bool batch = false;
    bool have_k = false;
    for (int i = 3; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--batch" && !batch) {
        batch = true;
        continue;
      }
      char* end = nullptr;
      const unsigned long parsed = std::strtoul(argv[i], &end, 10);
      if (have_k || end == argv[i] || *end != '\0' || parsed == 0 ||
          parsed > 1000) {
        return Usage();
      }
      k = parsed;
      have_k = true;
    }
    return Serve(argv[2], k, batch);
  }
  if (mode == "addtable" && (argc == 4 || argc == 5)) {
    return AddTableCsv(argv[2], argv[3], argc == 5 ? argv[4] : "");
  }
  if (mode == "resave" && argc == 4) return Resave(argv[2], argv[3]);
  return Usage();
}
