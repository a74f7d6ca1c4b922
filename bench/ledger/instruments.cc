#include "bench/ledger/instruments.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>

namespace multiem::ledger {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

Tracer::Buffer& Tracer::Local() {
  thread_local Buffer* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    local = buffers_.back().get();
    local->thread = static_cast<uint32_t>(buffers_.size() - 1);
  }
  return *local;
}

void Tracer::Record(Span span) {
  Buffer& buffer = Local();
  span.thread = buffer.thread;
  buffer.spans.push_back(std::move(span));
}

void Tracer::CountEncode(int64_t busy_ns, size_t bytes) {
  EncodeCounters& c = Local().encode[phase_.load(std::memory_order_relaxed)];
  ++c.calls;
  c.busy_ns += static_cast<uint64_t>(busy_ns);
  c.bytes += bytes;
}

std::vector<Span> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const auto& buffer : buffers_) {
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
  }
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  return out;
}

std::array<EncodeCounters, kNumPhases> Tracer::EncodeTotals() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::array<EncodeCounters, kNumPhases> totals{};
  for (const auto& buffer : buffers_) {
    for (int p = 0; p < kNumPhases; ++p) {
      totals[p].calls += buffer->encode[p].calls;
      totals[p].busy_ns += buffer->encode[p].busy_ns;
      totals[p].bytes += buffer->encode[p].bytes;
    }
  }
  return totals;
}

namespace {

/// Layer rank of a span name: a span's parent is the tightest enclosing span
/// of a lower rank (rep < phase < merge level < index work).
int SpanRank(std::string_view name) {
  if (name.starts_with("rep.")) return 0;
  if (name.starts_with("phase.")) return 2;
  if (name == "merge.level" || name == "embed.fit" || name == "prune") {
    return 3;
  }
  if (name.starts_with("ann.")) return 4;
  return 1;  // pipeline.run, artifact.*, serve.*, ingest.*
}

}  // namespace

util::Status Tracer::WriteChromeTrace(const std::string& path, int rep) const {
  const std::vector<Span> spans = Collect();
  int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return util::Status::Internal("cannot write trace file " + path);
  }
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // Parent: the tightest span of a lower rank that encloses this one.
    long parent = -1;
    int64_t parent_len = std::numeric_limits<int64_t>::max();
    for (size_t j = 0; j < spans.size(); ++j) {
      const Span& p = spans[j];
      if (j == i || SpanRank(p.name) >= SpanRank(s.name)) continue;
      if (p.start_ns <= s.start_ns && s.end_ns <= p.end_ns &&
          p.end_ns - p.start_ns < parent_len) {
        parent = static_cast<long>(j);
        parent_len = p.end_ns - p.start_ns;
      }
    }
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %ld, \"rep\": %d",
                 i == 0 ? "" : ",\n", s.name.c_str(), s.thread,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, parent,
                 rep);
    for (const auto& [key, value] : s.args) {
      std::fprintf(f, ", \"%s\": %.17g", key.c_str(), value);
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0) {
    return util::Status::Internal("cannot finish trace file " + path);
  }
  return util::Status::Ok();
}

// ------------------------------------------------------------- decorators

TracedIndex::~TracedIndex() {
  const uint64_t calls = calls_.load(std::memory_order_relaxed);
  if (calls == 0) return;
  Span span;
  span.name = "ann.search";
  span.start_ns = first_ns_.load(std::memory_order_relaxed);
  span.end_ns = last_ns_.load(std::memory_order_relaxed);
  span.args = {
      {"calls", static_cast<double>(calls)},
      {"busy_s", static_cast<double>(busy_ns_.load()) / 1e9},
      {"distance_evals", static_cast<double>(distance_evals_.load())},
      {"visited", static_cast<double>(visited_.load())}};
  Tracer::Get().Record(std::move(span));
}

void TracedIndex::AddBatch(const embed::EmbeddingMatrix& vectors,
                           util::ThreadPool* pool) {
  Span span;
  span.name = "ann.build";
  span.start_ns = NowNs();
  inner_->AddBatch(vectors, pool);
  span.end_ns = NowNs();
  span.args = {{"rows", static_cast<double>(vectors.num_rows())}};
  Tracer::Get().Record(std::move(span));
}

std::vector<ann::Neighbor> TracedIndex::SearchWithStats(
    std::span<const float> query, size_t k, size_t ef,
    ann::SearchStats* stats) const {
  ann::SearchStats local;
  const int64_t start = NowNs();
  std::vector<ann::Neighbor> hits =
      inner_->SearchWithStats(query, k, ef, &local);
  const int64_t end = NowNs();
  calls_.fetch_add(1, std::memory_order_relaxed);
  busy_ns_.fetch_add(static_cast<uint64_t>(end - start),
                     std::memory_order_relaxed);
  distance_evals_.fetch_add(local.distance_evals, std::memory_order_relaxed);
  visited_.fetch_add(local.visited, std::memory_order_relaxed);
  int64_t first = first_ns_.load(std::memory_order_relaxed);
  while (start < first &&
         !first_ns_.compare_exchange_weak(first, start,
                                          std::memory_order_relaxed)) {
  }
  int64_t last = last_ns_.load(std::memory_order_relaxed);
  while (end > last &&
         !last_ns_.compare_exchange_weak(last, end,
                                         std::memory_order_relaxed)) {
  }
  if (stats != nullptr) *stats = local;
  return hits;
}

std::unique_ptr<ann::VectorIndex> TracedIndex::Clone() const {
  std::unique_ptr<ann::VectorIndex> copy = inner_->Clone();
  if (copy == nullptr) return nullptr;
  return std::make_unique<TracedIndex>(std::move(copy));
}

void TracedEncoder::FitCorpus(const std::vector<std::string>& corpus) {
  Span span;
  span.name = "embed.fit";
  span.start_ns = NowNs();
  inner_->FitCorpus(corpus);
  span.end_ns = NowNs();
  span.args = {{"texts", static_cast<double>(corpus.size())}};
  Tracer::Get().Record(std::move(span));
}

void TracedEncoder::EncodeInto(std::string_view text,
                               std::span<float> out) const {
  const int64_t start = NowNs();
  inner_->EncodeInto(text, out);
  Tracer::Get().CountEncode(NowNs() - start, text.size());
}

std::vector<eval::Tuple> TracedPruner::Prune(const core::MergeTable& integrated,
                                             const core::PruneContext& ctx,
                                             core::PruneStats* stats) const {
  core::PruneStats local;
  core::PruneStats* sink = stats != nullptr ? stats : &local;
  Span span;
  span.name = "prune";
  span.start_ns = NowNs();
  std::vector<eval::Tuple> tuples = inner_->Prune(integrated, ctx, sink);
  span.end_ns = NowNs();
  span.args = {{"items_examined", static_cast<double>(sink->items_examined)},
               {"outliers_removed",
                static_cast<double>(sink->outliers_removed)}};
  Tracer::Get().Record(std::move(span));
  return tuples;
}

namespace {

Phase PhaseOf(std::string_view name) {
  if (name == "selection") return kSelection;
  if (name == "representation") return kRepresentation;
  if (name == "merging") return kMerging;
  if (name == "pruning") return kPruning;
  return kNone;
}

double Seconds(const Span& s) {
  return static_cast<double>(s.end_ns - s.start_ns) / 1e9;
}

double Arg(const Span& s, std::string_view key) {
  for (const auto& [name, value] : s.args) {
    if (name == key) return value;
  }
  return 0.0;
}

}  // namespace

void PhaseRecorder::OnPhaseStart(std::string_view phase) {
  phase_start_ns_ = NowNs();
  level_start_ns_ = phase_start_ns_;
  Tracer::Get().SetPhase(PhaseOf(phase));
}

void PhaseRecorder::OnPhaseEnd(std::string_view phase, double seconds) {
  (void)seconds;
  Span span;
  span.name = "phase." + std::string(phase);
  span.start_ns = phase_start_ns_;
  span.end_ns = NowNs();
  Tracer::Get().Record(std::move(span));
  Tracer::Get().SetPhase(kNone);
}

void PhaseRecorder::OnMergeLevel(const core::MergeLevelProgress& progress) {
  Span span;
  span.name = "merge.level";
  span.start_ns = level_start_ns_;
  span.end_ns = NowNs();
  span.args = {{"level", static_cast<double>(progress.level)},
               {"tables_in", static_cast<double>(progress.tables_in)},
               {"pairs", static_cast<double>(progress.pairs_merged)},
               {"mutual_pairs", static_cast<double>(progress.mutual_pairs)}};
  level_start_ns_ = span.end_ns;
  Tracer::Get().Record(std::move(span));
}

std::map<std::string, double> PipelineLayers(const std::vector<Span>& spans,
                                             size_t threads) {
  std::map<std::string, double> out;
  const Span* merging = nullptr;
  for (const Span& s : spans) {
    if (s.name.starts_with("phase.")) {
      out["core.pipeline." + s.name.substr(6) + "_s"] += Seconds(s);
      if (s.name == "phase.merging") merging = &s;
    }
  }
  // A parallel run's caller helps its pool while it waits, so it counts.
  const double workers = static_cast<double>(threads > 1 ? threads + 1 : 1);

  // Encoder time inside the pipeline's phases (serving encodes are kNone).
  const std::array<EncodeCounters, kNumPhases> encode =
      Tracer::Get().EncodeTotals();
  double encode_s = 0.0, calls = 0.0, bytes = 0.0;
  for (int p = kSelection; p < kNumPhases; ++p) {
    encode_s += static_cast<double>(encode[p].busy_ns) / 1e9;
    calls += static_cast<double>(encode[p].calls);
    bytes += static_cast<double>(encode[p].bytes);
  }
  double fit_s = 0.0;
  for (const Span& s : spans) {
    if (s.name == "embed.fit") fit_s += Seconds(s);
  }
  out["embed.fit_s"] = fit_s;
  out["embed.encode_s"] = encode_s;
  out["embed.encode_calls"] = calls;
  out["embed.encode_bytes"] = bytes;
  out["core.attribute_selector.self_s"] = std::max(
      0.0, out["core.pipeline.selection_s"] -
               static_cast<double>(encode[kSelection].busy_ns) / 1e9 / workers);

  // Merge levels and the index work inside the merging phase.
  double levels = 0.0, mutual_pairs = 0.0, level_max = 0.0, tail = 0.0;
  double build_s = 0.0, build_rows = 0.0, search_s = 0.0, search_calls = 0.0;
  double evals = 0.0, visited = 0.0;
  std::vector<std::pair<int64_t, int64_t>> covered;
  for (const Span& s : spans) {
    if (s.name == "merge.level") {
      levels += 1.0;
      mutual_pairs += Arg(s, "mutual_pairs");
      level_max = std::max(level_max, Seconds(s));
      if (Arg(s, "pairs") <= 1.0) tail += Seconds(s);
      continue;
    }
    if (!s.name.starts_with("ann.") || merging == nullptr ||
        s.start_ns < merging->start_ns || s.end_ns > merging->end_ns) {
      continue;
    }
    covered.emplace_back(s.start_ns, s.end_ns);
    if (s.name == "ann.build") {
      build_s += Seconds(s);
      build_rows += Arg(s, "rows");
    } else {
      search_s += Arg(s, "busy_s");
      search_calls += Arg(s, "calls");
      evals += Arg(s, "distance_evals");
      visited += Arg(s, "visited");
    }
  }
  std::sort(covered.begin(), covered.end());
  double covered_s = 0.0;
  int64_t reach = std::numeric_limits<int64_t>::min();
  for (const auto& [start, end] : covered) {
    const int64_t from = std::max(start, reach);
    if (end > from) covered_s += static_cast<double>(end - from) / 1e9;
    reach = std::max(reach, end);
  }
  const double merging_s = out["core.pipeline.merging_s"];
  out["ann.build_s"] = build_s;
  out["ann.build_rows"] = build_rows;
  out["ann.search_s"] = search_s;
  out["ann.search_calls"] = search_calls;
  out["ann.search_distance_evals"] = evals;
  out["ann.search_visited"] = visited;
  out["ann.search_useful_ratio"] =
      search_calls > 0.0 ? 2.0 * mutual_pairs / search_calls : 0.0;
  out["core.merge.levels"] = levels;
  out["core.merge.mutual_pairs"] = mutual_pairs;
  out["core.merge.self_s"] = std::max(0.0, merging_s - covered_s);
  out["core.merge.level_max_s"] = level_max;
  out["core.merge.tail_s"] = tail;
  out["core.merge.busy_ratio"] =
      merging_s > 0.0 ? (build_s + search_s) / (workers * merging_s) : 0.0;

  for (const Span& s : spans) {
    if (s.name != "prune") continue;
    out["core.density_pruner.prune_s"] += Seconds(s);
    out["core.density_pruner.items_examined"] += Arg(s, "items_examined");
    out["core.density_pruner.outliers_removed"] += Arg(s, "outliers_removed");
  }
  return out;
}

}  // namespace multiem::ledger
