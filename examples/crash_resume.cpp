// Kill→resume soak driver: proves the checkpoint journal makes the pipeline
// crash-safe at scale — the CI gate behind docs/API.md "Crash safety &
// resume".
//
//   $ ./examples/crash_resume --out_dir=/tmp/multiem_crash
//         --rows=200000 --sources=8 --crashes=10
//
// One uninterrupted pipeline run over a deterministic synthetic corpus
// (datagen::ScaleCorpusGenerator) writes <out_dir>/baseline: the canonical
// tuple listing (tuples.txt) plus the saved serving artifact. Then a crash
// loop forks child processes that run the same pipeline against one shared
// RunContext::checkpoint_dir, each armed (MULTIEM_FAULT syntax) to hard
// _exit(42) at a pseudo-randomly chosen fault point — an atomic-write stage
// or commit, a merge-node spill or journal commit, or a pipeline phase
// commit. Every child resumes whatever its predecessors journaled; the loop
// repeats until at least --crashes children have died mid-run AND one child
// finished, writing <out_dir>/resumed with the same layout. If a child
// completes before enough crashes fired (the armed site/hit was already
// behind the journal), the checkpoint dir is wiped and the soak starts
// over, so the crash quota is always honest.
//
// The driver exits 0 only when tuples.txt and every artifact file
// (manifest.mem, encoder.mem, index.mem) are bitwise identical between
// baseline/ and resumed/ — and CI re-checks the same files with cmp(1), so
// the gate does not depend on this process's own verdict.
//
// --threads sizes the pipeline's pool (default 1). HNSW builds insert in
// rounds that give the same graph on any pool (see ann/hnsw.h), so the
// bitwise gate holds at any thread count.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "core/artifact.h"
#include "core/pipeline.h"
#include "datagen/scale.h"
#include "eval/tuples.h"
#include "util/fault.h"
#include "util/subprocess.h"

namespace fs = std::filesystem;
using multiem::core::MultiEmConfig;
using multiem::core::PipelineBuilder;
using multiem::core::PipelineResult;
using multiem::core::RunContext;
using multiem::table::Table;

namespace {

struct Options {
  size_t rows = 200000;
  size_t sources = 8;
  size_t crashes = 10;  // minimum forced crashes before completion counts
  size_t threads = 1;
  std::string out_dir;
};

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) != 0) return false;
  *value = arg + prefix.size();
  return true;
}

/// The bench_scale knobs: lean HNSW + hashing encoder, sized for synthetic
/// corpora, with the thread count pinned by the caller.
MultiEmConfig Config(size_t threads) {
  MultiEmConfig config;
  config.embedding_dim = 48;  // the hashing encoder runs it at 64
  config.sample_ratio = 0.05;
  config.m = 0.5f;
  config.hnsw_m = 8;
  config.hnsw_ef_construction = 40;
  config.hnsw_ef_search = 32;
  config.num_threads = threads;
  config.seed = 7;
  return config;
}

std::vector<Table> Corpus(size_t rows, size_t sources) {
  multiem::datagen::ScaleCorpusConfig config;
  config.seed = 42;
  config.num_sources = sources;
  config.rows_per_source = std::max<size_t>(1, rows / sources);
  config.overlap = 0.3;
  multiem::datagen::ScaleCorpusGenerator gen(config);
  std::vector<Table> tables;
  tables.reserve(gen.num_sources());
  for (size_t s = 0; s < gen.num_sources(); ++s) {
    tables.push_back(gen.MaterializeSource(s));
  }
  return tables;
}

/// Writes the canonical tuple listing (sorted members, sorted tuples — see
/// eval::TupleSet) so two runs' outputs compare with cmp(1).
bool WriteTuples(const PipelineResult& result, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.good()) return false;
  out << result.ToTupleSet().ToString();
  return out.good();
}

/// Runs the pipeline and writes <dir>/tuples.txt + <dir>/artifact. Returns
/// a process exit code (0 ok) so it can run directly inside a forked child.
int RunAndPersist(const std::vector<Table>& tables, const Options& opts,
                  const std::string& checkpoint_dir, const std::string& arm,
                  const std::string& dir) {
  auto pipeline = PipelineBuilder(Config(opts.threads)).Build();
  if (!pipeline.ok()) return 3;
  RunContext ctx;
  ctx.checkpoint_dir = checkpoint_dir;
  ctx.arm_faults = arm;
  ctx.build_matcher = true;
  PipelineResult result;
  if (!pipeline->Run(tables, ctx, &result).ok()) return 2;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  if (!WriteTuples(result, dir + "/tuples.txt")) return 3;
  if (!result.matcher->Save(dir + "/artifact").ok()) return 3;
  return 0;
}

bool FilesIdentical(const std::string& a, const std::string& b) {
  std::ifstream fa(a, std::ios::binary), fb(b, std::ios::binary);
  if (!fa.good() || !fb.good()) return false;
  using It = std::istreambuf_iterator<char>;
  return std::equal(It(fa), It(), It(fb), It()) && fa.eof() == fb.eof();
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::string value;
  for (int i = 1; i < argc; ++i) {
    if (ParseFlag(argv[i], "rows", &value)) {
      opts.rows = std::stoul(value);
    } else if (ParseFlag(argv[i], "sources", &value)) {
      opts.sources = std::stoul(value);
    } else if (ParseFlag(argv[i], "crashes", &value)) {
      opts.crashes = std::stoul(value);
    } else if (ParseFlag(argv[i], "threads", &value)) {
      opts.threads = std::stoul(value);
    } else if (ParseFlag(argv[i], "out_dir", &value)) {
      opts.out_dir = value;
    } else {
      std::fprintf(stderr,
                   "usage: crash_resume --out_dir=DIR [--rows=N] "
                   "[--sources=N] [--crashes=N] [--threads=N]\n");
      return 1;
    }
  }
  if (opts.out_dir.empty()) {
    std::fprintf(stderr, "crash_resume: --out_dir is required\n");
    return 1;
  }

  fs::remove_all(opts.out_dir);
  fs::create_directories(opts.out_dir);
  const std::string ckpt = opts.out_dir + "/ckpt";
  const std::string baseline = opts.out_dir + "/baseline";
  const std::string resumed = opts.out_dir + "/resumed";

  std::printf("# crash_resume: %zu rows over %zu sources, >=%zu crashes, "
              "%zu thread(s)\n",
              opts.rows, opts.sources, opts.crashes, opts.threads);
  std::vector<Table> tables = Corpus(opts.rows, opts.sources);

  // ---- uninterrupted reference run (no checkpointing, no faults).
  if (int rc = RunAndPersist(tables, opts, "", "", baseline); rc != 0) {
    std::fprintf(stderr, "crash_resume: baseline run failed (%d)\n", rc);
    return 1;
  }
  std::printf("# baseline written to %s\n", baseline.c_str());

  // ---- the kill->resume soak.
  const std::vector<std::string> sites = {
      "io.write.stage",    "io.write.commit", "merge.node.spill",
      "merge.node.commit", "pipeline.phase.commit"};
  const size_t max_rounds = opts.crashes * 6 + 30;
  size_t crashes = 0;
  bool completed = false;
  bool fresh = true;  // a fresh checkpoint dir always reaches the first spill
  for (size_t round = 0; round < max_rounds && !completed; ++round) {
    std::mt19937 rng(static_cast<uint32_t>(round) * 9176u + 7u);
    const std::string site =
        fresh ? "merge.node.spill" : sites[rng() % sites.size()];
    const uint64_t hit = fresh ? 1 : 1 + rng() % 4;
    const std::string arm = site + ":crash:" + std::to_string(hit);
    fresh = false;

    auto child = multiem::util::Subprocess::Fork([&](int) -> int {
      // Fault-point hit counters are inherited across fork; a real fresh
      // process starts from zero, so mirror that.
      multiem::util::FaultInjector::Global().Reset();
      return RunAndPersist(tables, opts, ckpt, arm, resumed);
    });
    if (!child.ok()) {
      std::fprintf(stderr, "crash_resume: fork failed: %s\n",
                   child.status().ToString().c_str());
      return 1;
    }
    auto ws = child->Wait(/*timeout_ms=*/30 * 60 * 1000);
    if (!ws.ok() || !ws->exited) {
      std::fprintf(stderr, "crash_resume: child did not exit cleanly\n");
      return 1;
    }
    if (ws->exit_code == 42) {  // util/fault.h's injected-crash exit code
      ++crashes;
      std::printf("# round %zu: crashed at %s (%zu/%zu)\n", round,
                  arm.c_str(), crashes, opts.crashes);
    } else if (ws->exit_code == 0) {
      if (crashes >= opts.crashes) {
        completed = true;
        std::printf("# round %zu: completed after %zu crashes\n", round,
                    crashes);
      } else {
        // The armed point was already behind the journal; start the soak
        // over so every counted run really did die and resume.
        std::printf("# round %zu: completed early (%zu/%zu crashes) — "
                    "restarting soak\n",
                    round, crashes, opts.crashes);
        fs::remove_all(ckpt);
        fs::remove_all(resumed);
        fresh = true;
      }
    } else {
      std::fprintf(stderr, "crash_resume: round %zu armed %s: unexpected "
                   "exit code %d\n",
                   round, arm.c_str(), ws->exit_code);
      return 1;
    }
  }
  if (!completed) {
    std::fprintf(stderr, "crash_resume: soak never converged in %zu rounds\n",
                 max_rounds);
    return 1;
  }

  // ---- bitwise gate (CI re-checks the same files with cmp).
  bool identical = FilesIdentical(baseline + "/tuples.txt",
                                  resumed + "/tuples.txt");
  for (const char* file : {multiem::core::PipelineArtifact::kManifestFile,
                           multiem::core::PipelineArtifact::kEncoderFile,
                           multiem::core::PipelineArtifact::kIndexFile}) {
    bool same = FilesIdentical(baseline + "/artifact/" + file,
                               resumed + "/artifact/" + file);
    if (!same) std::fprintf(stderr, "crash_resume: %s differs\n", file);
    identical = identical && same;
  }
  std::printf("# %zu crashes survived; outputs %s\n", crashes,
              identical ? "bitwise identical" : "DIFFER");
  return identical ? 0 : 1;
}
