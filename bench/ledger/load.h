/// \file load.h
/// Client load for the ledger's serving phases: an open-loop generator whose
/// reader threads claim single-row MatchRecords requests from one fixed
/// schedule, a closed-loop saturation run, and the brute-force recall
/// oracle.

#ifndef MULTIEM_BENCH_LEDGER_LOAD_H_
#define MULTIEM_BENCH_LEDGER_LOAD_H_

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/matcher.h"
#include "table/table.h"

namespace multiem::ledger {

/// One open-loop request. Latency runs from `due`, so a stall is charged to
/// every request scheduled behind it.
struct Request {
  int64_t due_ns = 0;
  int64_t claim_ns = 0;  ///< when a reader took it off the schedule
  int64_t start_ns = 0;  ///< when MatchRecords was called
  int64_t end_ns = 0;
  bool ok = false;
};

/// Summary of a set of requests. Queue wait runs from due to the start of
/// the call (a busy reader pool plus the generator's own overshoot);
/// generator lateness is only the overshoot: how far the call started after
/// max(due, claim).
struct ReadSummary {
  size_t count = 0;
  size_t failed = 0;
  double p99_ms = 0.0;
  double queue_p99_ms = 0.0;
  double late_p99_ms = 0.0;
};

ReadSummary Summarize(const std::vector<Request>& requests);

/// Nearest-rank percentile of an unsorted sample (copy sorted inside).
double Percentile(std::vector<double> values, double p);

/// Open-loop load: request i is due at start + i / rate and asks for the top
/// k items of queries[i % queries.size()]. Readers spin until a request is
/// due instead of sleeping. A sleep_until overshoots by a tenth of a
/// millisecond or more, and on a host shared with other guests a reader
/// that sleeps between requests comes back to cold caches: with sleeps, the
/// post-ingest p50 of one input varied by 35% and its p99 by 2.5x between
/// runs; spinning kept both within about 10%. Readers start on construction;
/// Finish() stops issuing requests due after `stop_ns` and joins.
class OpenLoop {
 public:
  OpenLoop(const core::Matcher& matcher,
           const std::vector<table::Table>& queries, double rate_qps,
           size_t readers, size_t k, bool count_evals);
  ~OpenLoop();

  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  /// Requests due after `stop_ns` are not issued; joins the readers and
  /// returns every issued request in due order.
  std::vector<Request> Finish(int64_t stop_ns);

  /// Mean distance evaluations per query (only with count_evals).
  double MeanDistanceEvals() const;

 private:
  void Reader(size_t id);

  const core::Matcher& matcher_;
  const std::vector<table::Table>& queries_;
  const double interval_ns_;
  const size_t k_;
  const bool count_evals_;
  const int64_t start_ns_;
  std::atomic<uint64_t> next_{0};
  std::atomic<int64_t> stop_ns_{INT64_MAX};
  std::vector<std::vector<Request>> done_;  // one vector per reader
  std::vector<double> evals_;               // one sum per reader
  std::vector<std::thread> threads_;        // last: uses the members above
};

/// Closed loop: `readers` threads issue back-to-back single-row requests for
/// `seconds`. Returns completed requests; `failed` counts errors.
size_t ClosedLoop(const core::Matcher& matcher,
                  const std::vector<table::Table>& queries, size_t readers,
                  size_t k, double seconds, size_t* failed);

/// recall@k of snapshot.MatchRecords(batch) against an exact top-k over the
/// snapshot's live item centroids, with query vectors from the session's
/// own encoder and attribute selection (so only the index approximates). A
/// returned item counts as a hit when it is no farther than the exact k-th
/// neighbour.
double RecallAtK(const core::Matcher& matcher,
                 const core::Matcher::Snapshot& snapshot,
                 const table::Table& batch, size_t k, bool* ok);

}  // namespace multiem::ledger

#endif  // MULTIEM_BENCH_LEDGER_LOAD_H_
