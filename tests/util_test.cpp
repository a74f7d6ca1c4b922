// Unit tests for src/util: Status/Result, RNG, strings, timers, thread pool,
// memory probes.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "util/memory.h"
#include "util/mmap.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace multiem::util {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_EQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_EQ(StatusCodeToString(StatusCode::kNotFound), "NotFound");
  EXPECT_EQ(StatusCodeToString(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_EQ(StatusCodeToString(StatusCode::kInternal), "Internal");
  EXPECT_EQ(StatusCodeToString(StatusCode::kFailedPrecondition),
            "FailedPrecondition");
  EXPECT_EQ(StatusCodeToString(StatusCode::kResourceExhausted),
            "ResourceExhausted");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

TEST(ResultTest, ReturnIfErrorMacro) {
  auto fails = []() -> Status { return Status::Internal("boom"); };
  auto wrapper = [&]() -> Status {
    MULTIEM_RETURN_IF_ERROR(fails());
    return Status::Ok();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kInternal);
}

// ------------------------------------------------------------------- RNG --

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 4);
}

TEST(RngTest, NextBoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.NextBounded(10);
    EXPECT_LT(v, 10u);
  }
}

TEST(RngTest, NextBoundedCoversRange) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBounded(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, NormalHasZeroMeanUnitVariance) {
  Rng rng(17);
  double sum = 0;
  double sum_sq = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    double v = rng.Normal();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / kN, 1.0, 0.05);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(19);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, SampleWithoutReplacementUnique) {
  Rng rng(29);
  std::vector<size_t> sample = rng.SampleWithoutReplacement(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (size_t v : sample) EXPECT_LT(v, 100u);
}

TEST(RngTest, SampleWithoutReplacementFullRange) {
  Rng rng(31);
  std::vector<size_t> sample = rng.SampleWithoutReplacement(5, 10);
  EXPECT_EQ(sample.size(), 5u);  // capped at n, identity permutation
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(sample[i], i);
}

TEST(RngTest, DiscreteRespectsWeights) {
  Rng rng(37);
  std::vector<double> weights{1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 8000; ++i) ++counts[rng.Discrete(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.4);
}

TEST(SplitMixTest, Mix64IsDeterministicAndSpreads) {
  EXPECT_EQ(Mix64(1), Mix64(1));
  EXPECT_NE(Mix64(1), Mix64(2));
  SplitMix64 sm(42);
  EXPECT_NE(sm.Next(), sm.Next());
}

// --------------------------------------------------------------- Strings --

TEST(StringTest, ToLower) {
  EXPECT_EQ(ToLower("Apple iPhone 8 PLUS"), "apple iphone 8 plus");
  EXPECT_EQ(ToLower(""), "");
}

TEST(StringTest, Trim) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("\t\nx\r "), "x");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("nospace"), "nospace");
}

TEST(StringTest, SplitPreservesEmptyFields) {
  auto parts = Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(StringTest, SplitTrailingDelimiter) {
  auto parts = Split("a,b,", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[2], "");
}

TEST(StringTest, SplitWhitespaceDropsEmpty) {
  auto parts = SplitWhitespace("  foo \t bar\nbaz  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "foo");
  EXPECT_EQ(parts[2], "baz");
}

TEST(StringTest, JoinRoundTrip) {
  std::vector<std::string> parts{"a", "b", "c"};
  EXPECT_EQ(Join(parts, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringTest, NormalizeWhitespace) {
  EXPECT_EQ(NormalizeWhitespace("  a   b\t\tc \n"), "a b c");
}

TEST(StringTest, EditDistanceBasics) {
  EXPECT_EQ(EditDistance("", ""), 0u);
  EXPECT_EQ(EditDistance("abc", "abc"), 0u);
  EXPECT_EQ(EditDistance("abc", ""), 3u);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("iphone", "ipone"), 1u);
}

TEST(StringTest, EditDistanceSymmetric) {
  EXPECT_EQ(EditDistance("sunday", "saturday"),
            EditDistance("saturday", "sunday"));
}

TEST(StringTest, NgramJaccardIdentical) {
  EXPECT_DOUBLE_EQ(NgramJaccard("apple", "apple", 3), 1.0);
}

TEST(StringTest, NgramJaccardDisjoint) {
  EXPECT_DOUBLE_EQ(NgramJaccard("aaaa", "bbbb", 3), 0.0);
}

TEST(StringTest, NgramJaccardTypoStaysHigh) {
  double sim = NgramJaccard("apple iphone 8 plus", "apple ipone 8 plus", 3);
  EXPECT_GT(sim, 0.5);
}

TEST(StringTest, NgramJaccardShortStrings) {
  EXPECT_DOUBLE_EQ(NgramJaccard("ab", "cd", 3), 1.0);  // both below n
  EXPECT_DOUBLE_EQ(NgramJaccard("ab", "cdef", 3), 0.0);
}

TEST(StringTest, IsAllDigits) {
  EXPECT_TRUE(IsAllDigits("0123"));
  EXPECT_FALSE(IsAllDigits(""));
  EXPECT_FALSE(IsAllDigits("12a"));
  EXPECT_FALSE(IsAllDigits("-12"));
}

TEST(StringTest, LooksNumeric) {
  EXPECT_TRUE(LooksNumeric("123"));
  EXPECT_TRUE(LooksNumeric("-74.0060"));
  EXPECT_TRUE(LooksNumeric("+3.5"));
  EXPECT_FALSE(LooksNumeric("1.2.3"));
  EXPECT_FALSE(LooksNumeric("12a"));
  EXPECT_FALSE(LooksNumeric("-"));
  EXPECT_FALSE(LooksNumeric(""));
}

TEST(StringTest, TokenLexicalityOrdering) {
  // Ordinary word > pure number > mixed letter-digit code.
  double word = TokenLexicality("chameleon");
  double number = TokenLexicality("2003");
  double code = TokenLexicality("wom14513028");
  EXPECT_GT(word, number);
  EXPECT_GT(number, code);
  EXPECT_EQ(TokenLexicality(""), 0.0);
}

TEST(StringTest, HashStringStableAndSpreads) {
  EXPECT_EQ(HashString("abc"), HashString("abc"));
  EXPECT_NE(HashString("abc"), HashString("abd"));
  EXPECT_NE(HashString(""), HashString("a"));
}

TEST(StringTest, FormatDuration) {
  EXPECT_EQ(FormatDuration(6.12), "6.1s");
  EXPECT_EQ(FormatDuration(252.0), "4.2m");
  EXPECT_EQ(FormatDuration(4680.0), "1.3h");
}

TEST(StringTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512B");
  EXPECT_EQ(FormatBytes(16'300'000'000ull), "16.3G");
  EXPECT_EQ(FormatBytes(17'500'000), "17.5M");
}

// ---------------------------------------------------------------- Timers --

TEST(TimerTest, WallTimerAdvances) {
  WallTimer t;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + 1;
  EXPECT_GT(t.ElapsedSeconds(), 0.0);
  EXPECT_GE(t.ElapsedMillis(), t.ElapsedSeconds());
}

TEST(TimerTest, PhaseTimingsAccumulate) {
  PhaseTimings timings;
  timings.Add("merge", 1.0);
  timings.Add("prune", 0.5);
  timings.Add("merge", 0.25);
  EXPECT_DOUBLE_EQ(timings.Get("merge"), 1.25);
  EXPECT_DOUBLE_EQ(timings.Get("prune"), 0.5);
  EXPECT_DOUBLE_EQ(timings.Get("absent"), 0.0);
  EXPECT_DOUBLE_EQ(timings.TotalSeconds(), 1.75);
  ASSERT_EQ(timings.phases().size(), 2u);
  EXPECT_EQ(timings.phases()[0].first, "merge");
}

TEST(TimerTest, ScopedPhaseTimerRecords) {
  PhaseTimings timings;
  {
    ScopedPhaseTimer t(&timings, "scope");
  }
  EXPECT_GE(timings.Get("scope"), 0.0);
  EXPECT_EQ(timings.phases().size(), 1u);
}

// ----------------------------------------------------------- Thread pool --

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  TaskGroup group(pool);
  for (int i = 0; i < 100; ++i) {
    pool.Submit(group, [&count] { count.fetch_add(1); });
  }
  group.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, GroupWaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  TaskGroup group(pool);
  pool.Submit(group, [&count] { count.fetch_add(1); });
  group.Wait();
  EXPECT_EQ(count.load(), 1);
  pool.Submit(group, [&count] { count.fetch_add(1); });
  group.Wait();
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPoolTest, GroupDestructorWaitsForPendingTasks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  {
    TaskGroup group(pool);
    for (int i = 0; i < 16; ++i) {
      pool.Submit(group, [&count] { count.fetch_add(1); });
    }
    // No explicit Wait(): the destructor must block until all 16 ran.
  }
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPoolTest, WaitDoesNotCrossTalkBetweenGroups) {
  // Regression: the old global Wait() blocked on the pool-wide pending
  // count, so one user's Wait() over-waited on another user's tasks. A
  // group's Wait() must return even while an unrelated group's task is
  // still blocked.
  ThreadPool pool(2);
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  TaskGroup blocked(pool);
  pool.Submit(blocked, [gate] { gate.wait(); });

  TaskGroup quick(pool);
  std::atomic<int> count{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit(quick, [&count] { count.fetch_add(1); });
  }
  quick.Wait();  // must not wait for `blocked` (would deadlock pre-fix)
  EXPECT_EQ(count.load(), 8);

  release.set_value();
  blocked.Wait();
}

TEST(ThreadPoolTest, NestedGroupWaitFromWorkerDoesNotDeadlock) {
  // A worker's task waits on an inner group whose tasks are queued on the
  // same pool; the helping Wait() must run them instead of blocking. More
  // outer tasks than workers so every worker nests at least once.
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  TaskGroup outer(pool);
  for (int t = 0; t < 8; ++t) {
    pool.Submit(outer, [&pool, &inner_total] {
      TaskGroup inner(pool);
      for (int i = 0; i < 16; ++i) {
        pool.Submit(inner, [&inner_total] { inner_total.fetch_add(1); });
      }
      inner.Wait();
    });
  }
  outer.Wait();
  EXPECT_EQ(inner_total.load(), 8 * 16);
}

TEST(ThreadPoolTest, ZeroThreadsMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(500);
  ParallelFor(&pool, hits.size(),
              [&](size_t i) { hits[i].fetch_add(1); },
              /*min_block_size=*/8);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForNullPoolRunsInline) {
  std::vector<int> hits(64, 0);
  ParallelFor(nullptr, hits.size(), [&](size_t i) { hits[i] += 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ParallelForEmpty) {
  ThreadPool pool(2);
  bool ran = false;
  ParallelFor(&pool, 0, [&](size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, NestedParallelForFromWorker) {
  // The MultiEM(parallel) shape: pair-merge tasks on the pool, each fanning
  // its inner loop out onto the same pool via ParallelFor.
  ThreadPool pool(3);
  constexpr size_t kOuter = 6;
  constexpr size_t kInner = 64;
  std::vector<std::vector<std::atomic<int>>> hits(kOuter);
  for (auto& row : hits) {
    row = std::vector<std::atomic<int>>(kInner);
  }
  ParallelFor(
      &pool, kOuter,
      [&](size_t o) {
        ParallelFor(
            &pool, kInner, [&](size_t i) { hits[o][i].fetch_add(1); },
            /*min_block_size=*/4);
      },
      /*min_block_size=*/1);
  for (const auto& row : hits) {
    for (const auto& h : row) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, ConcurrentParallelForsOnOnePool) {
  // Two external threads drive independent ParallelFor calls over one pool;
  // each must see exactly its own iteration space complete (the old global
  // Wait() made them over-wait on each other).
  ThreadPool pool(4);
  constexpr size_t kN = 300;
  std::vector<std::atomic<int>> a(kN);
  std::vector<std::atomic<int>> b(kN);
  std::thread ta([&] {
    ParallelFor(&pool, kN, [&](size_t i) { a[i].fetch_add(1); },
                /*min_block_size=*/8);
  });
  std::thread tb([&] {
    ParallelFor(&pool, kN, [&](size_t i) { b[i].fetch_add(1); },
                /*min_block_size=*/8);
  });
  ta.join();
  tb.join();
  for (const auto& h : a) EXPECT_EQ(h.load(), 1);
  for (const auto& h : b) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelApplyOverlapsTwoLoopsOnOneGroup) {
  // MutualTopK's shape: both search directions submitted under one group,
  // one Wait.
  ThreadPool pool(2);
  constexpr size_t kN = 100;
  std::vector<std::atomic<int>> a(kN);
  std::vector<std::atomic<int>> b(kN);
  TaskGroup group(pool);
  ParallelApply(pool, group, kN, [&](size_t i) { a[i].fetch_add(1); },
                /*min_block_size=*/8);
  ParallelApply(pool, group, kN, [&](size_t i) { b[i].fetch_add(1); },
                /*min_block_size=*/8);
  group.Wait();
  for (const auto& h : a) EXPECT_EQ(h.load(), 1);
  for (const auto& h : b) EXPECT_EQ(h.load(), 1);
}

// ---------------------------------------------------------------- Memory --

TEST(MemoryTest, RssProbesArePlausible) {
  size_t rss = CurrentRssBytes();
  size_t peak = PeakRssBytes();
  EXPECT_GT(rss, 1u << 20);   // more than 1 MiB resident
  EXPECT_GE(peak, rss / 2);   // peak should not be wildly below current
}

// ---------------------------------------------------------------- CowSlab --

// Allocations made through CountingAllocator since the last Reset.
struct AllocationLog {
  static inline size_t count = 0;
  static inline size_t last_elements = 0;  // size of the latest allocation
  static void Reset() { count = last_elements = 0; }
};

template <typename T>
struct CountingAllocator {
  using value_type = T;
  CountingAllocator() = default;
  template <typename U>
  CountingAllocator(const CountingAllocator<U>&) {}
  T* allocate(size_t n) {
    ++AllocationLog::count;
    AllocationLog::last_elements = n;
    return std::allocator<T>().allocate(n);
  }
  void deallocate(T* p, size_t n) { std::allocator<T>().deallocate(p, n); }
  friend bool operator==(const CountingAllocator&, const CountingAllocator&) {
    return true;
  }
};

using CountedSlab = CowSlab<int, CountingAllocator<int>>;

// {0, 1, ..., n-1}: the backing of a view, which keeps it alive.
std::shared_ptr<const std::vector<int>> Iota(size_t n) {
  auto backing = std::make_shared<std::vector<int>>(n);
  for (size_t i = 0; i < n; ++i) (*backing)[i] = static_cast<int>(i);
  return backing;
}

CountedSlab ViewOf(const std::shared_ptr<const std::vector<int>>& backing) {
  CountedSlab slab;
  slab.BindView(*backing, backing);
  return slab;
}

// The slab holds 0, 1, ..., n-1 first, then `tail`.
void ExpectIotaThen(const CountedSlab& slab, size_t n,
                    const std::vector<int>& tail = {}) {
  ASSERT_EQ(slab.size(), n + tail.size());
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(slab[i], static_cast<int>(i));
  for (size_t i = 0; i < tail.size(); ++i) ASSERT_EQ(slab[n + i], tail[i]);
}

TEST(CowSlabTest, CopyOfAViewSharesTheViewAndItsKeepalive) {
  const auto backing = Iota(10);
  const CountedSlab view = ViewOf(backing);
  AllocationLog::Reset();
  const CountedSlab copy = view;
  EXPECT_EQ(AllocationLog::count, 0u);
  EXPECT_TRUE(copy.is_view());
  EXPECT_EQ(copy.data(), backing->data());
  EXPECT_EQ(copy.keepalive(), view.keepalive());
  EXPECT_EQ(backing.use_count(), 3);  // this test, the view and its copy
  EXPECT_EQ(copy.OwnedBytes(), 0u);
}

TEST(CowSlabTest, CopyOfAnOwnedSlabIsDeepAndEnsureOwnedDetachesAView) {
  const auto backing = Iota(10);
  CountedSlab slab = ViewOf(backing);
  AllocationLog::Reset();
  slab.EnsureOwned();
  EXPECT_EQ(AllocationLog::count, 1u);
  EXPECT_FALSE(slab.is_view());
  EXPECT_EQ(slab.keepalive(), nullptr);
  EXPECT_NE(slab.data(), backing->data());
  EXPECT_EQ(backing.use_count(), 1);  // the view's keepalive is released
  ExpectIotaThen(slab, 10);

  CountedSlab copy = slab;
  EXPECT_FALSE(copy.is_view());
  EXPECT_NE(copy.data(), slab.data());
  copy[0] = 42;
  EXPECT_EQ(slab[0], 0);
  EXPECT_EQ((*backing)[0], 0);
}

TEST(CowSlabTest, ReserveOnAViewAllocatesOnceAtTheFinalCapacity) {
  CountedSlab slab = ViewOf(Iota(10));
  AllocationLog::Reset();
  slab.reserve(100);
  EXPECT_EQ(AllocationLog::count, 1u);
  EXPECT_EQ(AllocationLog::last_elements, 100u);
  EXPECT_FALSE(slab.is_view());
  EXPECT_EQ(slab.OwnedBytes(), 100 * sizeof(int));
  ExpectIotaThen(slab, 10);
}

TEST(CowSlabTest, AppendOnAViewAllocatesOnceAtTheFinalCapacity) {
  CountedSlab slab = ViewOf(Iota(10));
  const std::vector<int> tail = {-1, -2, -3, -4, -5};
  AllocationLog::Reset();
  slab.append(tail.begin(), tail.end());
  EXPECT_EQ(AllocationLog::count, 1u);
  EXPECT_EQ(AllocationLog::last_elements, 15u);
  EXPECT_EQ(slab.OwnedBytes(), 15 * sizeof(int));
  ExpectIotaThen(slab, 10, tail);
}

TEST(CowSlabTest, ResizeOnAViewAllocatesOnceAtTheFinalCapacity) {
  CountedSlab grown = ViewOf(Iota(10));
  AllocationLog::Reset();
  grown.resize(13, 7);
  EXPECT_EQ(AllocationLog::count, 1u);
  EXPECT_EQ(grown.OwnedBytes(), 13 * sizeof(int));
  ExpectIotaThen(grown, 10, {7, 7, 7});

  CountedSlab shrunk = ViewOf(Iota(10));
  AllocationLog::Reset();
  shrunk.resize(4);
  EXPECT_EQ(AllocationLog::count, 1u);
  EXPECT_EQ(shrunk.OwnedBytes(), 4 * sizeof(int));
  ExpectIotaThen(shrunk, 4);
}

TEST(CowSlabTest, CopyWithCapacityAllocatesOnceFromAViewOrAnOwnedSlab) {
  const auto backing = Iota(10);
  const CountedSlab view = ViewOf(backing);
  CountedSlab owned = ViewOf(Iota(10));
  owned.EnsureOwned();
  const CountedSlab* sources[] = {&view, &owned};
  for (const CountedSlab* source : sources) {
    AllocationLog::Reset();
    const CountedSlab copy = source->CopyWithCapacity(64);
    EXPECT_EQ(AllocationLog::count, 1u);
    EXPECT_FALSE(copy.is_view());
    EXPECT_EQ(copy.OwnedBytes(), 64 * sizeof(int));
    ExpectIotaThen(copy, 10);
  }
  EXPECT_TRUE(view.is_view());  // the source is left as it was
  EXPECT_EQ(view.data(), backing->data());
}

// ------------------------------------------------------------- MmapFile --

TEST(MmapFileTest, OpenExposesFileBytesReadOnly) {
  const std::string path = ::testing::TempDir() + "multiem_util_mmap.bin";
  const std::string payload = "mapped bytes, read-only, shared pages";
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  }
  auto mapped = MmapFile::Open(path);
  if (!MmapFile::Supported()) {
    ASSERT_FALSE(mapped.ok());
    EXPECT_EQ(mapped.status().code(), StatusCode::kUnimplemented);
    return;
  }
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  ASSERT_EQ(mapped->size(), payload.size());
  EXPECT_EQ(std::memcmp(mapped->data(), payload.data(), payload.size()), 0);
  mapped->AdviseSequential();
  mapped->AdviseRandom();
  mapped->AdviseWillNeed();  // best-effort hints never fail

  // Move transfers the mapping; the source becomes empty-but-valid.
  MmapFile moved = std::move(*mapped);
  EXPECT_EQ(moved.size(), payload.size());
  std::filesystem::remove(path);
}

TEST(MmapFileTest, MissingFileIsNotFoundAndEmptyFileIsEmptySpan) {
  auto missing = MmapFile::Open(::testing::TempDir() + "multiem_no_such_file");
  ASSERT_FALSE(missing.ok());
  if (!MmapFile::Supported()) {
    EXPECT_EQ(missing.status().code(), StatusCode::kUnimplemented);
    return;
  }
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  const std::string path = ::testing::TempDir() + "multiem_util_empty.bin";
  { std::ofstream f(path, std::ios::binary | std::ios::trunc); }
  auto empty = MmapFile::Open(path);
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_EQ(empty->size(), 0u);
  EXPECT_TRUE(empty->valid());
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace multiem::util
