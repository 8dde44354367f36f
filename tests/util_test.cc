#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "util/backoff.h"
#include "util/failpoint.h"
#include "util/hash.h"
#include "util/periodic_thread.h"
#include "util/random.h"
#include "util/serialize.h"
#include "util/slice_ring.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "util/top_k.h"
#include "util/windowed_quantile.h"

namespace lake {
namespace {

// --- Status / Result ------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing table");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing table");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing table");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::Internal("x"), Status::Internal("x"));
  EXPECT_FALSE(Status::Internal("x") == Status::Internal("y"));
}

TEST(StatusTest, EveryCodeHasName) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInvalidArgument),
               "INVALID_ARGUMENT");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kIoError), "IO_ERROR");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("bad");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(-1), -1);
}

Result<int> Doubled(Result<int> in) {
  LAKE_ASSIGN_OR_RETURN(int v, std::move(in));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(Doubled(21).value(), 42);
  EXPECT_FALSE(Doubled(Status::Internal("boom")).ok());
}

// --- Hash -----------------------------------------------------------------

TEST(HashTest, DeterministicAcrossCalls) {
  EXPECT_EQ(Hash64("hello"), Hash64("hello"));
  EXPECT_EQ(Hash64(std::string_view("hello"), 7),
            Hash64(std::string_view("hello"), 7));
}

TEST(HashTest, SeedChangesValue) {
  EXPECT_NE(Hash64(std::string_view("hello"), 1),
            Hash64(std::string_view("hello"), 2));
}

TEST(HashTest, DifferentInputsRarelyCollide) {
  std::set<uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    seen.insert(Hash64("value" + std::to_string(i)));
  }
  EXPECT_EQ(seen.size(), 10000u);
}

TEST(HashTest, LongInputsExerciseBlockPath) {
  std::string long_a(1000, 'a');
  std::string long_b = long_a;
  long_b[999] = 'b';
  EXPECT_NE(Hash64(long_a), Hash64(long_b));
}

TEST(HashTest, HashToUnitInRange) {
  for (uint64_t i = 0; i < 1000; ++i) {
    const double u = HashToUnit(Hash64(i));
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

// --- Rng ------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(5), b(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.NextBounded(17), 17u);
}

TEST(RngTest, UnitMeanNearHalf) {
  Rng rng(2);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) sum += rng.NextUnit();
  EXPECT_NEAR(sum / 20000, 0.5, 0.02);
}

TEST(RngTest, GaussianMomentsSane) {
  Rng rng(3);
  double sum = 0, sum_sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(4);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, (std::vector<int>{1, 2, 3, 4, 5, 6, 7}));
}

TEST(RngTest, NextIntInclusive) {
  Rng rng(6);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.NextInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(ZipfTest, Rank0MostFrequent) {
  Rng rng(7);
  ZipfSampler zipf(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 50000; ++i) ++counts[zipf.Sample(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[90]);
}

TEST(ZipfTest, ZeroSkewIsUniformish) {
  Rng rng(8);
  ZipfSampler zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 50000; ++i) ++counts[zipf.Sample(rng)];
  for (int c : counts) EXPECT_NEAR(c, 5000, 500);
}

// --- String utils ---------------------------------------------------------

TEST(StringUtilTest, ToLowerAscii) {
  EXPECT_EQ(ToLowerAscii("HeLLo World"), "hello world");
  EXPECT_EQ(ToLowerAscii(""), "");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(TrimAscii("  x  "), "x");
  EXPECT_EQ(TrimAscii("\t\n a b \r"), "a b");
  EXPECT_EQ(TrimAscii("   "), "");
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("x", ','), (std::vector<std::string>{"x"}));
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, ParseDouble) {
  double d;
  EXPECT_TRUE(ParseDouble("3.25", &d));
  EXPECT_DOUBLE_EQ(d, 3.25);
  EXPECT_TRUE(ParseDouble(" -1e3 ", &d));
  EXPECT_DOUBLE_EQ(d, -1000);
  EXPECT_FALSE(ParseDouble("abc", &d));
  EXPECT_FALSE(ParseDouble("1.5x", &d));
  EXPECT_FALSE(ParseDouble("", &d));
  EXPECT_FALSE(ParseDouble("nan", &d));  // non-finite rejected
}

TEST(StringUtilTest, ParseInt64) {
  int64_t i;
  EXPECT_TRUE(ParseInt64("42", &i));
  EXPECT_EQ(i, 42);
  EXPECT_TRUE(ParseInt64("-7", &i));
  EXPECT_EQ(i, -7);
  EXPECT_FALSE(ParseInt64("4.2", &i));
  EXPECT_FALSE(ParseInt64("99999999999999999999999", &i));
}

TEST(StringUtilTest, ParseBool) {
  bool b;
  EXPECT_TRUE(ParseBool("TRUE", &b));
  EXPECT_TRUE(b);
  EXPECT_TRUE(ParseBool("no", &b));
  EXPECT_FALSE(b);
  EXPECT_FALSE(ParseBool("maybe", &b));
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StrFormat("%.2f", 1.5), "1.50");
}

// --- TopK -----------------------------------------------------------------

TEST(TopKTest, KeepsLargest) {
  TopK<int> top(3);
  for (int i = 0; i < 10; ++i) top.Push(i, i);
  auto out = top.Take();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].second, 9);
  EXPECT_EQ(out[1].second, 8);
  EXPECT_EQ(out[2].second, 7);
}

TEST(TopKTest, TiesKeepFirstInserted) {
  TopK<int> top(2);
  top.Push(1.0, 100);
  top.Push(1.0, 200);
  top.Push(1.0, 300);  // tie with current worst: rejected
  auto out = top.Take();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].second, 100);
  EXPECT_EQ(out[1].second, 200);
}

TEST(TopKTest, ThresholdTracksKth) {
  TopK<int> top(2);
  EXPECT_DOUBLE_EQ(top.Threshold(-1), -1);
  top.Push(5, 1);
  EXPECT_DOUBLE_EQ(top.Threshold(-1), -1);  // not full yet
  top.Push(9, 2);
  EXPECT_DOUBLE_EQ(top.Threshold(-1), 5);
  top.Push(7, 3);
  EXPECT_DOUBLE_EQ(top.Threshold(-1), 7);
}

TEST(TopKTest, ZeroKIsEmpty) {
  TopK<int> top(0);
  top.Push(1, 1);
  EXPECT_TRUE(top.Take().empty());
}

// --- Binary serialization ---------------------------------------------------

TEST(SerializeTest, VarintRoundTrip) {
  std::stringstream buf;
  BinaryWriter w(&buf);
  const uint64_t cases[] = {0, 1, 127, 128, 300, 1ULL << 32, ~0ULL};
  for (uint64_t v : cases) w.WriteVarint(v);
  BinaryReader r(&buf);
  for (uint64_t v : cases) EXPECT_EQ(r.ReadVarint().value(), v);
  EXPECT_FALSE(r.ReadVarint().ok());  // stream exhausted
}

TEST(SerializeTest, StringWithEmbeddedNul) {
  std::stringstream buf;
  BinaryWriter w(&buf);
  const std::string s("a\0b\0", 4);
  w.WriteString(s);
  w.WriteString("");
  BinaryReader r(&buf);
  EXPECT_EQ(r.ReadString().value(), s);
  EXPECT_EQ(r.ReadString().value(), "");
}

TEST(SerializeTest, VectorsAndScalars) {
  std::stringstream buf;
  BinaryWriter w(&buf);
  w.WriteU32Vector({1, 2, 3});
  w.WriteU64Vector({});
  w.WriteFloatVector({1.5f, -2.25f});
  w.WriteFixed64(0xdeadbeefcafef00dULL);
  w.WriteDouble(3.14159);
  BinaryReader r(&buf);
  EXPECT_EQ(r.ReadU32Vector().value(), (std::vector<uint32_t>{1, 2, 3}));
  EXPECT_TRUE(r.ReadU64Vector().value().empty());
  EXPECT_EQ(r.ReadFloatVector().value(), (std::vector<float>{1.5f, -2.25f}));
  EXPECT_EQ(r.ReadFixed64().value(), 0xdeadbeefcafef00dULL);
  EXPECT_DOUBLE_EQ(r.ReadDouble().value(), 3.14159);
}

TEST(SerializeTest, TruncationDetected) {
  std::stringstream buf;
  BinaryWriter w(&buf);
  w.WriteString("hello world");
  std::stringstream cut(buf.str().substr(0, 4));
  BinaryReader r(&cut);
  EXPECT_FALSE(r.ReadString().ok());
  std::stringstream empty;
  BinaryReader r2(&empty);
  EXPECT_FALSE(r2.ReadFixed64().ok());
  EXPECT_FALSE(r2.ReadFloat().ok());
}

// --- ThreadPool -----------------------------------------------------------

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(50);
  pool.ParallelFor(50, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyIsNoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL(); });
}

TEST(TimerTest, MeasuresElapsed) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(t.ElapsedMillis(), 5.0);
  t.Restart();
  EXPECT_LT(t.ElapsedMillis(), 10.0);
}

TEST(RngForkTest, SameTagSameParentIsDeterministic) {
  Rng parent(42);
  Rng a = parent.Fork("workload");
  Rng b = parent.Fork("workload");
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngForkTest, DifferentTagsProduceIndependentStreams) {
  Rng parent(42);
  Rng a = parent.Fork("ops");
  Rng b = parent.Fork("faults");
  size_t same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0u);
}

TEST(RngForkTest, ForkDoesNotAdvanceTheParent) {
  Rng with_fork(7), without(7);
  with_fork.Fork("side");
  with_fork.Fork("other");
  for (int i = 0; i < 20; ++i) EXPECT_EQ(with_fork.Next(), without.Next());
}

TEST(RngForkTest, ForkTracksParentState) {
  // Forking after the parent advanced must give a different stream than
  // forking at the start — the fold reads the parent's current state.
  Rng parent(9);
  const uint64_t before = parent.Fork("tag").Next();
  parent.Next();
  const uint64_t after = parent.Fork("tag").Next();
  EXPECT_NE(before, after);
}

TEST(FailpointRegistryTest, ClearAllResetsCountersAndDisarms) {
  auto& registry = FailpointRegistry::Instance();
  registry.ClearAll();
  FaultSpec spec;
  spec.max_fires = 0;
  registry.Arm("util_test.site", spec);
  EXPECT_TRUE(registry.Hit("util_test.site").has_value());
  EXPECT_EQ(registry.hits("util_test.site"), 1u);
  EXPECT_EQ(registry.fires("util_test.site"), 1u);

  registry.ClearAll();
  EXPECT_EQ(registry.hits("util_test.site"), 0u);
  EXPECT_EQ(registry.fires("util_test.site"), 0u);
  EXPECT_FALSE(registry.Hit("util_test.site").has_value());  // disarmed
  registry.ClearAll();
}

TEST(FailpointRegistryTest, ListRegisteredIsSortedAndSurvivesClearAll) {
  auto& registry = FailpointRegistry::Instance();
  registry.ClearAll();
  registry.Register("util_test.zeta");
  registry.Register("util_test.alpha");
  registry.Arm("util_test.armed", FaultSpec{});

  const std::vector<std::string> names = registry.ListRegistered();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  auto has = [&names](const char* n) {
    return std::find(names.begin(), names.end(), n) != names.end();
  };
  EXPECT_TRUE(has("util_test.zeta"));
  EXPECT_TRUE(has("util_test.alpha"));
  EXPECT_TRUE(has("util_test.armed"));

  registry.ClearAll();
  const std::vector<std::string> after = registry.ListRegistered();
  auto still = [&after](const char* n) {
    return std::find(after.begin(), after.end(), n) != after.end();
  };
  // Registration describes the binary, not a run: it survives ClearAll.
  EXPECT_TRUE(still("util_test.zeta"));
  EXPECT_TRUE(still("util_test.armed"));
}

// --- Backoff --------------------------------------------------------------

TEST(BackoffTest, DelayDoublesFromInitialAndCaps) {
  EXPECT_EQ(BackoffDelay(100, 5000, 1), 100u);
  EXPECT_EQ(BackoffDelay(100, 5000, 2), 200u);
  EXPECT_EQ(BackoffDelay(100, 5000, 3), 400u);
  EXPECT_EQ(BackoffDelay(100, 5000, 6), 3200u);
  EXPECT_EQ(BackoffDelay(100, 5000, 7), 5000u);   // 6400 capped
  EXPECT_EQ(BackoffDelay(100, 5000, 60), 5000u);  // stays capped, no overflow
}

TEST(BackoffTest, DelayEdgeCases) {
  EXPECT_EQ(BackoffDelay(0, 5000, 1), 0u);    // 0 initial stays 0
  EXPECT_EQ(BackoffDelay(0, 5000, 9), 0u);    // ... forever (0*2 = 0)
  EXPECT_EQ(BackoffDelay(100, 50, 1), 50u);   // max below initial clamps
  EXPECT_EQ(BackoffDelay(100, 100, 5), 100u); // max == initial
}

TEST(BackoffTest, StatefulAdvancesAndResets) {
  Backoff b(Backoff::Options{10, 80, 0});
  EXPECT_EQ(b.NextDelayMs(), 10u);
  EXPECT_EQ(b.NextDelayMs(), 20u);
  EXPECT_EQ(b.NextDelayMs(), 40u);
  EXPECT_EQ(b.NextDelayMs(), 80u);
  EXPECT_EQ(b.NextDelayMs(), 80u);  // capped
  EXPECT_EQ(b.attempts(), 5u);
  b.Reset();
  EXPECT_EQ(b.attempts(), 0u);
  EXPECT_EQ(b.NextDelayMs(), 10u);  // schedule starts over
}

TEST(BackoffTest, JitterStaysInBandAndIsDeterministic) {
  Backoff::Options opts{100, 10000, 0.5};
  Backoff a(opts, Rng(42).Fork("backoff"));
  Backoff b(opts, Rng(42).Fork("backoff"));
  uint64_t previous_base = 0;
  for (int i = 1; i <= 8; ++i) {
    const uint64_t base = BackoffDelay(100, 10000, i);
    const uint64_t da = a.NextDelayMs();
    // Jittered delay scales the base by [1 - jitter, 1].
    EXPECT_GE(da, base / 2);
    EXPECT_LE(da, base);
    // Same seed, same stream: the whole schedule replays (the chaos
    // determinism contract).
    EXPECT_EQ(da, b.NextDelayMs());
    EXPECT_GE(base, previous_base);
    previous_base = base;
  }
}

// --- WindowedQuantile -----------------------------------------------------

TEST(WindowedQuantileTest, EmptyWindowReportsZero) {
  WindowedQuantile wq;
  const auto now = WindowedQuantile::Clock::now();
  EXPECT_EQ(wq.count(now), 0u);
  EXPECT_EQ(wq.Quantile(0.5, now), 0.0);
}

TEST(WindowedQuantileTest, QuantilesWithinBucketError) {
  WindowedQuantile::Options opts;
  opts.window_slices = 4;
  opts.slice_width = std::chrono::milliseconds(1000);
  WindowedQuantile wq(opts);
  const auto now = WindowedQuantile::Clock::now();
  // 1..1000 us uniformly: p50 ~ 500, p95 ~ 950, p99 ~ 990.
  for (int v = 1; v <= 1000; ++v) wq.Record(v, now);
  EXPECT_EQ(wq.count(now), 1000u);
  // Log-bucketing bounds relative error at ~12.5%.
  EXPECT_NEAR(wq.Quantile(0.50, now), 500.0, 500.0 * 0.15);
  EXPECT_NEAR(wq.Quantile(0.95, now), 950.0, 950.0 * 0.15);
  EXPECT_NEAR(wq.Quantile(0.99, now), 990.0, 990.0 * 0.15);
  // Extremes are exact-ish: min lands in an exact bucket.
  EXPECT_LE(wq.Quantile(0.0, now), 2.0);
}

TEST(WindowedQuantileTest, OldSlicesRollOffTheWindow) {
  WindowedQuantile::Options opts;
  opts.window_slices = 4;
  opts.slice_width = std::chrono::milliseconds(100);
  WindowedQuantile wq(opts);
  const auto t0 = WindowedQuantile::Clock::now();
  for (int i = 0; i < 100; ++i) wq.Record(10000.0, t0);  // slow past
  // One window later the slow samples have decayed away entirely and the
  // replica stops *looking* slow.
  const auto t1 = t0 + std::chrono::milliseconds(100 * 5);
  for (int i = 0; i < 100; ++i) wq.Record(100.0, t1);
  EXPECT_EQ(wq.count(t1), 100u);
  EXPECT_LT(wq.Quantile(0.95, t1), 200.0);
}

TEST(WindowedQuantileTest, MixedSlicesMergeAndResetDrops) {
  WindowedQuantile::Options opts;
  opts.window_slices = 8;
  opts.slice_width = std::chrono::milliseconds(100);
  WindowedQuantile wq(opts);
  const auto t0 = WindowedQuantile::Clock::now();
  const auto t1 = t0 + std::chrono::milliseconds(100);
  for (int i = 0; i < 50; ++i) wq.Record(100.0, t0);
  for (int i = 0; i < 50; ++i) wq.Record(1000.0, t1);
  // Both slices are inside the window: the quantile sees all 100 samples.
  EXPECT_EQ(wq.count(t1), 100u);
  const double p75 = wq.Quantile(0.75, t1);
  EXPECT_GT(p75, 500.0);
  wq.Reset();
  EXPECT_EQ(wq.count(t1), 0u);
  EXPECT_EQ(wq.Quantile(0.75, t1), 0.0);
}

TEST(WindowedQuantileTest, LargeValuesClampToLastBucket) {
  WindowedQuantile wq;
  const auto now = WindowedQuantile::Clock::now();
  wq.Record(1e18, now);  // absurd sample must not crash or wrap
  EXPECT_EQ(wq.count(now), 1u);
  EXPECT_GT(wq.Quantile(0.5, now), 1e6);
}

// --------------------------------------------------------------- SliceRing

using Ring = SliceRing<uint64_t>;

Ring::Clock::time_point RingAt(int64_t ms) {
  return Ring::Clock::time_point() + std::chrono::milliseconds(ms);
}

uint64_t LiveSum(const Ring& ring, Ring::Clock::time_point now) {
  uint64_t sum = 0;
  ring.ForEachLive(now, [&](const uint64_t& v) { sum += v; });
  return sum;
}

TEST(SliceRingTest, SliceRollsOffAtTheExactWindowEdge) {
  Ring ring(4, std::chrono::milliseconds(100));  // 400ms window
  ring.Current(RingAt(0)) += 1;     // tick 0
  ring.Current(RingAt(150)) += 10;  // tick 1
  EXPECT_EQ(LiveSum(ring, RingAt(399)), 11u);  // ticks 0..3
  EXPECT_EQ(LiveSum(ring, RingAt(400)), 10u);  // ticks 1..4: tick 0 is out
  EXPECT_EQ(LiveSum(ring, RingAt(499)), 10u);
  EXPECT_EQ(LiveSum(ring, RingAt(500)), 0u);   // ticks 2..5: tick 1 is out
  // Tick 4 reuses tick 0's slot and starts it from zero.
  EXPECT_EQ(ring.Current(RingAt(400)), 0u);
}

TEST(SliceRingTest, GapLongerThanTheWindowFindsEverySlotStale) {
  Ring ring(4, std::chrono::milliseconds(100));
  for (int ms = 0; ms < 400; ms += 100) ring.Current(RingAt(ms)) += 1;
  EXPECT_EQ(LiveSum(ring, RingAt(399)), 4u);
  // Ten windows later nothing is live, and a new slice counts alone even
  // though the other slots still hold their old ticks.
  EXPECT_EQ(LiveSum(ring, RingAt(4350)), 0u);
  ring.Current(RingAt(4350)) += 7;
  EXPECT_EQ(LiveSum(ring, RingAt(4350)), 7u);
  // A `now` before a slot's tick does not count that slot either.
  EXPECT_EQ(LiveSum(ring, RingAt(4250)), 0u);
}

TEST(SliceRingTest, ResetEmptiesTheWindow) {
  Ring ring(4, std::chrono::milliseconds(100));
  ring.Current(RingAt(0)) += 3;
  ring.Current(RingAt(100)) += 4;
  ASSERT_EQ(LiveSum(ring, RingAt(100)), 7u);
  ring.Reset();
  EXPECT_EQ(LiveSum(ring, RingAt(100)), 0u);
  EXPECT_EQ(ring.Current(RingAt(100)), 0u);
  ring.Current(RingAt(100)) += 2;
  EXPECT_EQ(LiveSum(ring, RingAt(100)), 2u);
}

TEST(SliceRingTest, DegenerateShapeClampsToOneSliceOfOneMs) {
  Ring ring(0, std::chrono::milliseconds(0));
  ring.Current(RingAt(5)) += 1;
  EXPECT_EQ(LiveSum(ring, RingAt(5)), 1u);
  EXPECT_EQ(LiveSum(ring, RingAt(6)), 0u);
}

// Several threads each write the current slice and read the window under
// the owner's mutex, as CircuitBreaker, RetryBudget and WindowedQuantile
// do, while the shared clock rolls slots over. Every read must see
// exactly the writes of the last 8 ticks. The TSan CI job runs this: the
// ring must keep no state outside the object the owner guards.
TEST(SliceRingTest, ConcurrentCurrentAndLiveIterationFromSeveralThreads) {
  constexpr uint64_t kThreads = 4;
  constexpr uint64_t kRounds = 2000;
  constexpr uint64_t kSlices = 8;
  constexpr int64_t kWidthMs = 10;
  Ring ring(kSlices, std::chrono::milliseconds(kWidthMs));
  std::mutex mu;
  uint64_t steps = 0;  // guarded by mu; kThreads steps per clock ms
  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> threads;
  for (uint64_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (uint64_t i = 0; i < kRounds; ++i) {
        std::lock_guard<std::mutex> lock(mu);
        const uint64_t step = steps++;
        const int64_t ms = static_cast<int64_t>(step / kThreads);
        ring.Current(RingAt(ms)) += 1;
        const int64_t tick = ms / kWidthMs;
        const int64_t first_live_tick =
            std::max<int64_t>(0, tick - static_cast<int64_t>(kSlices) + 1);
        const uint64_t first_live_step =
            static_cast<uint64_t>(first_live_tick * kWidthMs) * kThreads;
        if (LiveSum(ring, RingAt(ms)) != step + 1 - first_live_step) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
  // The final window holds the last 80ms of writes: 4 per ms.
  EXPECT_EQ(LiveSum(ring, RingAt(kRounds - 1)), kThreads * 80);
}

// ---------------------------------------------------------- PeriodicThread

TEST(PeriodicThreadTest, RunPassAndWaitAwaitsAPassThatStartsAfterTheCall) {
  std::atomic<int> value{0};
  std::atomic<int> seen{-1};
  // A long interval: only triggers run passes during the test.
  PeriodicThread thread(std::chrono::milliseconds(60000), [&](bool triggered) {
    EXPECT_TRUE(triggered);
    seen = value.load();
  });
  value = 1;
  thread.RunPassAndWait();
  EXPECT_EQ(seen.load(), 1);
  EXPECT_EQ(thread.passes(), 1u);
  value = 2;
  thread.RunPassAndWait();
  EXPECT_EQ(seen.load(), 2);
  thread.Stop();
  thread.Stop();  // idempotent
  thread.RunPassAndWait();  // stopped: returns at once
  EXPECT_EQ(thread.passes(), 2u);
}

TEST(PeriodicThreadTest, IntervalRunsPassesUntriggered) {
  std::atomic<int> untriggered{0};
  PeriodicThread thread(std::chrono::milliseconds(1), [&](bool triggered) {
    if (!triggered) ++untriggered;
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (untriggered.load() < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(untriggered.load(), 3);
}

}  // namespace
}  // namespace lake
