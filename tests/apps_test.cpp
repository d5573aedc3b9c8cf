// Application correctness: every parallel variant must reproduce the
// sequential result bit-for-bit (the execution policies are constructed
// so that floating-point reduction orders are schedule-independent).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "apps/cilksort.hpp"
#include "apps/fft.hpp"
#include "apps/fib.hpp"
#include "apps/heat.hpp"
#include "apps/knapsack.hpp"
#include "apps/lu.hpp"
#include "apps/magic.hpp"
#include "apps/matmul.hpp"
#include "apps/nqueens.hpp"
#include "apps/registry.hpp"
#include "apps/strassen.hpp"
#include "apps/common.hpp"
#include "cilk/cilkstyle.hpp"
#include "runtime/runtime.hpp"

namespace {

class AppWorkerTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(AppWorkerTest, Fib) {
  st::Runtime srt(GetParam());
  ck::Runtime crt(GetParam());
  const long expect = apps::fib::seq(20);
  EXPECT_EQ(expect, 6765);
  long got_st = 0, got_ck = 0;
  srt.run([&] { got_st = apps::fib::run_st(20); });
  crt.run([&] { got_ck = apps::fib::run_ck(20); });
  EXPECT_EQ(got_st, expect);
  EXPECT_EQ(got_ck, expect);
}

TEST_P(AppWorkerTest, Cilksort) {
  auto base = apps::cilksort::make_input(20000);
  auto v_seq = base, v_st = base, v_ck = base;
  apps::cilksort::seq(v_seq);
  EXPECT_TRUE(std::is_sorted(v_seq.begin(), v_seq.end()));
  st::Runtime srt(GetParam());
  srt.run([&] { apps::cilksort::run_st(v_st); });
  ck::Runtime crt(GetParam());
  crt.run([&] { apps::cilksort::run_ck(v_ck); });
  EXPECT_EQ(v_st, v_seq);
  EXPECT_EQ(v_ck, v_seq);
}

/// Resident set size in bytes, from /proc/self/statm (0 if unreadable).
std::size_t resident_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size = 0, resident = 0;
  const int got = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  return got == 2 ? resident * static_cast<std::size_t>(::sysconf(_SC_PAGESIZE)) : 0;
}

TEST(CilksortScratch, SortsFromSeveralThreadsKeepNoScratchResident) {
  // The merge scratch is as large as the input.  Once freed, a heap
  // buffer of that size stays resident in the malloc arena of whichever
  // thread sorted, so sorts run from different threads would each leave
  // one behind; the scratch must be returned to the kernel instead.
  constexpr std::size_t kN = std::size_t{1} << 20;
  auto data = apps::cilksort::make_input(kN);
  const auto expect = [&] {
    auto v = data;
    std::sort(v.begin(), v.end());
    return v;
  }();
  std::vector<std::vector<long>> copies(3, data);  // allocated before the baseline
  const std::size_t before = resident_bytes();
  if (before == 0) GTEST_SKIP() << "no /proc/self/statm";
  for (auto& v : copies) std::thread([&v] { apps::cilksort::seq(v); }).join();
  const std::size_t after = resident_bytes();
  for (const auto& v : copies) EXPECT_EQ(v, expect);
  EXPECT_LT(after, before + kN * sizeof(long))
      << "resident memory grew from " << before << " to " << after << " bytes";
}

TEST_P(AppWorkerTest, Knapsack) {
  const auto inst = apps::knapsack::make_instance(18);
  const long expect = apps::knapsack::seq(inst);
  EXPECT_GT(expect, 0);
  long got_st = 0, got_ck = 0;
  st::Runtime srt(GetParam());
  srt.run([&] { got_st = apps::knapsack::run_st(inst); });
  ck::Runtime crt(GetParam());
  crt.run([&] { got_ck = apps::knapsack::run_ck(inst); });
  EXPECT_EQ(got_st, expect);
  EXPECT_EQ(got_ck, expect);
}

class MatmulVariantTest
    : public ::testing::TestWithParam<std::tuple<apps::matmul::Variant, unsigned>> {};

TEST_P(MatmulVariantTest, MatchesNaiveAndIsScheduleDeterministic) {
  using namespace apps::matmul;
  const auto [variant, workers] = GetParam();
  const std::size_t n = 64;
  const auto a = apps::random_matrix(n, 1);
  const auto b = apps::random_matrix(n, 2);
  Matrix naive(n * n, 0.0);
  multiply_naive(naive, a, b, n);

  Matrix c_seq(n * n, 0.0);
  multiply_seq(variant, c_seq, a, b, n);
  if (variant == Variant::kSpace) {
    // spacemul sums the k >= n/2 products into a temporary before a single
    // accumulate, so its rounding differs from the naive ascending-k order;
    // it must still be numerically equivalent.
    for (std::size_t i = 0; i < n * n; ++i) ASSERT_NEAR(c_seq[i], naive[i], 1e-9);
  } else {
    // notempmul and blockedmul accumulate per element in the naive
    // ascending-k order: bitwise identical.
    EXPECT_EQ(c_seq, naive);
  }

  // Whatever the variant, the parallel schedules must reproduce the
  // sequential instantiation bit-for-bit.
  Matrix c_st(n * n, 0.0);
  st::Runtime srt(workers);
  srt.run([&] { multiply_st(variant, c_st, a, b, n); });
  EXPECT_EQ(c_st, c_seq);

  Matrix c_ck(n * n, 0.0);
  ck::Runtime crt(workers);
  crt.run([&] { multiply_ck(variant, c_ck, a, b, n); });
  EXPECT_EQ(c_ck, c_seq);
}

INSTANTIATE_TEST_SUITE_P(
    VariantsAndWorkers, MatmulVariantTest,
    ::testing::Combine(::testing::Values(apps::matmul::Variant::kNoTemp,
                                         apps::matmul::Variant::kSpace,
                                         apps::matmul::Variant::kBlocked),
                       ::testing::Values(1u, 3u)));

TEST_P(AppWorkerTest, Heat) {
  auto g_seq = apps::heat::make_grid(64, 64);
  auto g_st = apps::heat::make_grid(64, 64);
  auto g_ck = apps::heat::make_grid(64, 64);
  apps::heat::step_seq(g_seq, 16);
  st::Runtime srt(GetParam());
  srt.run([&] { apps::heat::step_st(g_st, 16); });
  ck::Runtime crt(GetParam());
  crt.run([&] { apps::heat::step_ck(g_ck, 16); });
  EXPECT_EQ(g_st.cells, g_seq.cells);
  EXPECT_EQ(g_ck.cells, g_seq.cells);
  // Heat actually diffused somewhere.
  EXPECT_NE(apps::heat::checksum(g_seq), apps::heat::checksum(apps::heat::make_grid(64, 64)));
}

TEST_P(AppWorkerTest, Lu) {
  const std::size_t n = 64;
  const auto original = apps::dominant_matrix(n, 7);
  auto a_seq = original, a_st = original, a_ck = original;
  apps::lu::factor_seq(a_seq, n);
  EXPECT_LT(apps::lu::residual(a_seq, original, n), 1e-9);
  st::Runtime srt(GetParam());
  srt.run([&] { apps::lu::factor_st(a_st, n); });
  ck::Runtime crt(GetParam());
  crt.run([&] { apps::lu::factor_ck(a_ck, n); });
  EXPECT_EQ(a_st, a_seq);
  EXPECT_EQ(a_ck, a_seq);
}

TEST_P(AppWorkerTest, Fft) {
  auto s_base = apps::fft::make_input(1 << 12);
  EXPECT_LT(apps::fft::roundtrip_error(s_base), 1e-9);
  auto s_seq = s_base, s_st = s_base, s_ck = s_base;
  apps::fft::transform_seq(s_seq);
  st::Runtime srt(GetParam());
  srt.run([&] { apps::fft::transform_st(s_st); });
  ck::Runtime crt(GetParam());
  crt.run([&] { apps::fft::transform_ck(s_ck); });
  EXPECT_EQ(s_st, s_seq);
  EXPECT_EQ(s_ck, s_seq);
}

TEST_P(AppWorkerTest, Magic) {
  const long expect = apps::magic::seq(2);
  EXPECT_GT(expect, 0);  // squares with a 1 or 2 in the top-left corner exist
  long got_st = 0, got_ck = 0;
  st::Runtime srt(GetParam());
  srt.run([&] { got_st = apps::magic::run_st(2); });
  ck::Runtime crt(GetParam());
  crt.run([&] { got_ck = apps::magic::run_ck(2); });
  EXPECT_EQ(got_st, expect);
  EXPECT_EQ(got_ck, expect);
}

TEST_P(AppWorkerTest, Nqueens) {
  EXPECT_EQ(apps::nqueens::seq(8), 92);  // the textbook value
  long got_st = 0, got_ck = 0;
  st::Runtime srt(GetParam());
  srt.run([&] { got_st = apps::nqueens::run_st(9); });
  ck::Runtime crt(GetParam());
  crt.run([&] { got_ck = apps::nqueens::run_ck(9); });
  EXPECT_EQ(got_st, 352);
  EXPECT_EQ(got_ck, 352);
}

INSTANTIATE_TEST_SUITE_P(Workers, AppWorkerTest, ::testing::Values(1u, 2u, 4u));

// The registry exposes every app with agreeing checksums at a small scale.
TEST(Registry, AllVariantsAgreeAtTinyScale) {
  const double scale = 0.02;  // tiny problems: this is a correctness test
  for (const auto& entry : apps::all_apps()) {
    SCOPED_TRACE(entry.name);
    const std::uint64_t expect = entry.seq(scale);
    std::uint64_t got_st = 0, got_ck = 0;
    {
      st::Runtime rt(2);
      rt.run([&] { got_st = entry.st(scale); });
    }
    {
      ck::Runtime rt(2);
      rt.run([&] { got_ck = entry.ck(scale); });
    }
    EXPECT_EQ(got_st, expect);
    EXPECT_EQ(got_ck, expect);
  }
}

TEST(Registry, LookupByName) {
  EXPECT_EQ(apps::app("fib").name, "fib");
  EXPECT_EQ(apps::all_apps().size(), 12u);
  EXPECT_THROW(apps::app("nope"), std::out_of_range);
}

TEST_P(AppWorkerTest, StrassenMatchesNaiveNumerically) {
  using namespace apps::strassen;
  const std::size_t n = 128;  // one recursion level above the leaf
  const auto a = apps::random_matrix(n, 21);
  const auto b = apps::random_matrix(n, 22);
  apps::matmul::Matrix naive(n * n, 0.0);
  apps::matmul::multiply_naive(naive, a, b, n);

  Matrix c_seq(n * n, 0.0);
  multiply_seq(c_seq, a, b, n);
  for (std::size_t i = 0; i < n * n; ++i) {
    ASSERT_NEAR(c_seq[i], naive[i], 1e-8) << "strassen diverged from the naive product";
  }
  Matrix c_st(n * n, 0.0);
  st::Runtime srt(GetParam());
  srt.run([&] { multiply_st(c_st, a, b, n); });
  EXPECT_EQ(c_st, c_seq);

  Matrix c_ck(n * n, 0.0);
  ck::Runtime crt(GetParam());
  crt.run([&] { multiply_ck(c_ck, a, b, n); });
  EXPECT_EQ(c_ck, c_seq);
}

TEST_P(AppWorkerTest, NqueensFirstSolutionIsValid) {
  st::Runtime rt(GetParam());
  const int n = 10;
  std::vector<int> solution;
  rt.run([&] { solution = apps::nqueens::first_solution_st(n); });
  ASSERT_EQ(solution.size(), static_cast<std::size_t>(n));
  for (int r1 = 0; r1 < n; ++r1) {
    for (int r2 = r1 + 1; r2 < n; ++r2) {
      EXPECT_NE(solution[r1], solution[r2]) << "column clash";
      EXPECT_NE(std::abs(solution[r1] - solution[r2]), r2 - r1) << "diagonal clash";
    }
  }
}

TEST(NqueensAbort, AbortPrunesTheSearch) {
  // With abortion, a first-solution search must visit far fewer nodes
  // than the full enumeration has solutions-times-depth work.
  st::Runtime rt(2);
  long nodes = 0;
  rt.run([&] {
    auto sol = apps::nqueens::first_solution_st(12);
    ASSERT_FALSE(sol.empty());
    nodes = apps::nqueens::last_first_solution_nodes();
  });
  // 12-queens has 14200 solutions; full enumeration visits ~856k nodes.
  // First-solution with abortion should be orders of magnitude below.
  EXPECT_LT(nodes, 200000);
  EXPECT_GT(nodes, 0);
}

}  // namespace
