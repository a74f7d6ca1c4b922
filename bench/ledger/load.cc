#include "bench/ledger/load.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "bench/ledger/instruments.h"
#include "embed/embedding.h"
#include "embed/serialize.h"

namespace multiem::ledger {

namespace {

class EvalCounter final : public core::MatchObserver {
 public:
  void OnQueryMatched(size_t, const core::MatchQueryStats& stats) override {
    evals += static_cast<double>(stats.distance_evals);
  }
  double evals = 0.0;
};

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

ReadSummary Summarize(const std::vector<Request>& requests) {
  ReadSummary out;
  std::vector<double> latency, queue, late;
  for (const Request& r : requests) {
    ++out.count;
    if (!r.ok) ++out.failed;
    latency.push_back(Ms(r.end_ns - r.due_ns));
    queue.push_back(Ms(r.start_ns - r.due_ns));
    late.push_back(Ms(r.start_ns - std::max(r.due_ns, r.claim_ns)));
  }
  out.p99_ms = Percentile(latency, 0.99);
  out.queue_p99_ms = Percentile(queue, 0.99);
  out.late_p99_ms = Percentile(late, 0.99);
  return out;
}

OpenLoop::OpenLoop(const core::Matcher& matcher,
                   const std::vector<table::Table>& queries, double rate_qps,
                   size_t readers, size_t k, bool count_evals)
    : matcher_(matcher),
      queries_(queries),
      interval_ns_(1e9 / rate_qps),
      k_(k),
      count_evals_(count_evals),
      start_ns_(NowNs() + 2'000'000),
      done_(readers),
      evals_(readers, 0.0) {
  for (size_t id = 0; id < readers; ++id) {
    threads_.emplace_back([this, id] { Reader(id); });
  }
}

OpenLoop::~OpenLoop() {
  stop_ns_.store(INT64_MIN);
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void OpenLoop::Reader(size_t id) {
  EvalCounter counter;
  core::MatchOptions options;
  options.k = k_;
  options.observer = count_evals_ ? &counter : nullptr;
  std::vector<Request>& done = done_[id];
  for (;;) {
    const uint64_t i = next_.fetch_add(1, std::memory_order_relaxed);
    Request r;
    r.due_ns = start_ns_ + static_cast<int64_t>(static_cast<double>(i) *
                                                interval_ns_);
    r.claim_ns = NowNs();
    while (NowNs() < r.due_ns && r.due_ns <= stop_ns_.load()) {
    }
    if (r.due_ns > stop_ns_.load()) break;
    r.start_ns = NowNs();
    auto hits = matcher_.MatchRecords(queries_[i % queries_.size()], options);
    r.end_ns = NowNs();
    r.ok = hits.ok();
    done.push_back(r);
  }
  evals_[id] = counter.evals;
}

std::vector<Request> OpenLoop::Finish(int64_t stop_ns) {
  stop_ns_.store(stop_ns);
  for (std::thread& t : threads_) t.join();
  threads_.clear();
  std::vector<Request> all;
  for (const std::vector<Request>& done : done_) {
    all.insert(all.end(), done.begin(), done.end());
  }
  std::sort(all.begin(), all.end(), [](const Request& a, const Request& b) {
    return a.due_ns < b.due_ns;
  });
  return all;
}

double OpenLoop::MeanDistanceEvals() const {
  double evals = 0.0;
  size_t count = 0;
  for (size_t id = 0; id < done_.size(); ++id) {
    evals += evals_[id];
    count += done_[id].size();
  }
  return count == 0 ? 0.0 : evals / static_cast<double>(count);
}

size_t ClosedLoop(const core::Matcher& matcher,
                  const std::vector<table::Table>& queries, size_t readers,
                  size_t k, double seconds, size_t* failed) {
  const int64_t stop_ns = NowNs() + static_cast<int64_t>(seconds * 1e9);
  std::atomic<uint64_t> next{0};
  std::atomic<size_t> completed{0};
  std::atomic<size_t> errors{0};
  std::vector<std::thread> threads;
  for (size_t id = 0; id < readers; ++id) {
    threads.emplace_back([&] {
      while (NowNs() < stop_ns) {
        const uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (matcher.MatchRecords(queries[i % queries.size()], k).ok()) {
          completed.fetch_add(1, std::memory_order_relaxed);
        } else {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  *failed = errors.load();
  return completed.load();
}

double RecallAtK(const core::Matcher& matcher,
                 const core::Matcher::Snapshot& snapshot,
                 const table::Table& batch, size_t k, bool* ok) {
  const embed::EmbeddingMatrix queries = matcher.encoder().EncodeBatch(
      embed::SerializeTable(batch, matcher.selection().selected_columns));
  const embed::EmbeddingMatrix centroids = snapshot.centroids();
  auto got = snapshot.MatchRecords(batch, k);
  *ok = got.ok();
  if (!got.ok()) return 0.0;
  // Squared norms of the items are taken once. CosineDistance is
  // 1 - CosineSimilarityFromParts(dot, |q|^2, |c|^2), so these distances
  // are bitwise the ones it returns, at a third of the dot products.
  std::vector<float> norm2(centroids.num_rows());
  std::vector<size_t> live;
  for (size_t item = 0; item < centroids.num_rows(); ++item) {
    norm2[item] = embed::Dot(centroids.Row(item), centroids.Row(item));
    if (!snapshot.item_members(item).empty()) live.push_back(item);
  }
  auto distance = [&](std::span<const float> query, float q2, size_t item) {
    const float dot = embed::Dot(query, centroids.Row(item));
    return 1.0f - embed::CosineSimilarityFromParts(dot, q2, norm2[item]);
  };
  double hit = 0.0, want = 0.0;
  std::vector<float> dists;
  for (size_t q = 0; q < queries.num_rows(); ++q) {
    const auto query = queries.Row(q);
    const float q2 = embed::Dot(query, query);
    dists.clear();
    for (size_t item : live) dists.push_back(distance(query, q2, item));
    const size_t take = std::min(k, dists.size());
    if (take == 0) continue;
    std::nth_element(dists.begin(), dists.begin() + (take - 1), dists.end());
    const float kth = dists[take - 1];
    want += static_cast<double>(take);
    // A hit is a live item no farther than the exact k-th neighbour, so of
    // items tied at that distance any one counts.
    for (const core::RecordMatch& m : (*got)[q]) {
      if (!snapshot.item_members(m.item).empty() &&
          distance(query, q2, m.item) <= kth) {
        hit += 1.0;
      }
    }
  }
  return want == 0.0 ? 0.0 : hit / want;
}

}  // namespace multiem::ledger
