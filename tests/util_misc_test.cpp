// Smaller util pieces: RNG determinism, stats, spinlock, table, env.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include "util/env.hpp"
#include "util/rng.hpp"
#include "util/spinlock.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

TEST(Rng, DeterministicForSeed) {
  stu::Xoshiro256 a(123), b(123), c(124);
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
    if (va != c.next()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(Rng, BoundsRespected) {
  stu::Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
    const auto r = rng.range(-5, 5);
    EXPECT_GE(r, -5);
    EXPECT_LE(r, 5);
    const double u = rng.unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Stats, SummaryBasics) {
  stu::Samples s;
  for (double v : {4.0, 1.0, 3.0, 2.0}) s.add(v);
  const auto sum = s.summarize();
  EXPECT_EQ(sum.n, 4u);
  EXPECT_DOUBLE_EQ(sum.min, 1.0);
  EXPECT_DOUBLE_EQ(sum.max, 4.0);
  EXPECT_DOUBLE_EQ(sum.mean, 2.5);
  EXPECT_DOUBLE_EQ(sum.median, 2.5);
  EXPECT_DOUBLE_EQ(s.best(), 1.0);
}

TEST(Stats, EmptySummaryIsZero) {
  stu::Samples s;
  const auto sum = s.summarize();
  EXPECT_EQ(sum.n, 0u);
  EXPECT_THROW(s.best(), std::logic_error);
}

TEST(Stats, FormatSecondsPicksUnits) {
  EXPECT_NE(stu::format_seconds(5e-9).find("ns"), std::string::npos);
  EXPECT_NE(stu::format_seconds(5e-6).find("us"), std::string::npos);
  EXPECT_NE(stu::format_seconds(5e-3).find("ms"), std::string::npos);
  EXPECT_NE(stu::format_seconds(5.0).find(" s"), std::string::npos);
}

TEST(Spinlock, MutualExclusionUnderContention) {
  stu::Spinlock lock;
  long counter = 0;
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        stu::SpinGuard g(lock);
        ++counter;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, static_cast<long>(kThreads) * kIters);
}

TEST(Spinlock, TryLockReflectsState) {
  stu::Spinlock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(Table, RendersAlignedRows) {
  stu::Table t({"name", "value"});
  t.add_row({"fib", "1.23"});
  t.add_row({"cilksort", "0.98"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("cilksort"), std::string::npos);
  EXPECT_THROW(t.add_row({"too", "many", "cells"}), std::invalid_argument);
}

TEST(Env, FallbacksAndParsing) {
  ::unsetenv("STMP_TEST_ENV");
  EXPECT_EQ(stu::env_long("STMP_TEST_ENV", 42), 42);
  ::setenv("STMP_TEST_ENV", "17", 1);
  EXPECT_EQ(stu::env_long("STMP_TEST_ENV", 42), 17);
  ::setenv("STMP_TEST_ENV", "2.5", 1);
  EXPECT_DOUBLE_EQ(stu::env_double("STMP_TEST_ENV", 1.0), 2.5);
  ::setenv("STMP_TEST_ENV", "hello", 1);
  EXPECT_EQ(stu::env_string("STMP_TEST_ENV", "x"), "hello");
  ::unsetenv("STMP_TEST_ENV");
  EXPECT_GE(stu::hardware_workers(), 1u);
}

}  // namespace
