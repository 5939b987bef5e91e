// Unit tests for the experiment harness.
#include <gtest/gtest.h>

#include "exp/harness.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

namespace cr {
namespace {

SimResult fake_result(std::uint64_t seed) {
  SimResult r;
  r.successes = seed * 10;
  r.slots = 100;
  return r;
}

TEST(Harness, ReplicateUsesSequentialSeeds) {
  const auto results = replicate(5, 10, fake_result);
  ASSERT_EQ(results.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(results[i].successes, (10u + i) * 10);
}

TEST(Harness, CollectAggregates) {
  const auto results = replicate(4, 1, fake_result);  // successes 10,20,30,40
  const Accumulator acc = collect(results, [](const SimResult& r) {
    return static_cast<double>(r.successes);
  });
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_DOUBLE_EQ(acc.mean(), 25.0);
  EXPECT_DOUBLE_EQ(acc.min(), 10.0);
  EXPECT_DOUBLE_EQ(acc.max(), 40.0);
}

TEST(Harness, Fraction) {
  const auto results = replicate(4, 1, fake_result);
  const double frac = fraction(results, [](const SimResult& r) { return r.successes >= 30; });
  EXPECT_DOUBLE_EQ(frac, 0.5);
  EXPECT_DOUBLE_EQ(fraction({}, [](const SimResult&) { return true; }), 0.0);
}

TEST(Harness, MeanSdFormat) {
  Accumulator acc;
  acc.add(1.0);
  acc.add(3.0);
  EXPECT_EQ(mean_sd(acc, 1), "2.0±1.4");
}

TEST(Harness, ParallelReplicateMatchesSerial) {
  const auto serial = replicate(17, 10, fake_result, /*threads=*/1);
  for (const int threads : {2, 5, 8}) {
    const auto parallel = replicate(17, 10, fake_result, threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) EXPECT_EQ(parallel[i], serial[i]);
  }
}

TEST(Harness, SmallRepCountsFillEveryWorker) {
  // Each body waits until min(reps, threads) bodies have been in flight at
  // once. If the pool hands fewer workers an index, the shared deadline
  // releases the waiters and the recorded peak falls short: the test fails
  // instead of hanging.
  constexpr int kThreads = 4;
  for (const int reps : {2, 3, 8, 16}) {
    const int want = std::min(reps, kThreads);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    std::atomic<int> in_flight{0};
    std::atomic<int> peak{0};
    detail::parallel_for_reps(reps, kThreads, [&](int) {
      const int now = in_flight.fetch_add(1) + 1;
      int seen = peak.load();
      while (now > seen && !peak.compare_exchange_weak(seen, now)) {
      }
      while (peak.load() < want && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      in_flight.fetch_sub(1);
    });
    EXPECT_EQ(peak.load(), want) << "reps=" << reps << " threads=" << kThreads;
  }
}

TEST(Harness, ReplicateMapCarriesArbitraryTypes) {
  const auto results = replicate_map(
      4, 7, [](std::uint64_t seed) { return std::to_string(seed); }, /*threads=*/2);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0], "7");
  EXPECT_EQ(results[3], "10");
}

}  // namespace
}  // namespace cr
