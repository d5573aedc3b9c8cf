// Metrics layer: bucket boundaries, percentile accuracy, unified
// quantile math, registry snapshot round-trip (docs/OBSERVABILITY.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "util/metrics.hpp"
#include "util/stats.hpp"
#include "util/trace_export.hpp"

namespace {

using stu::HistogramSnapshot;
using stu::LogHistogram;

TEST(LogHistogramBuckets, LinearRangeIsExact) {
  for (std::uint64_t v = 0; v < HistogramSnapshot::kLinear; ++v) {
    EXPECT_EQ(LogHistogram::bucket_of(v), v);
    EXPECT_EQ(LogHistogram::bucket_lo(v), v);
    EXPECT_EQ(LogHistogram::bucket_hi(v), v);
  }
}

TEST(LogHistogramBuckets, EveryValueFallsInItsBucketRange) {
  // Sweep powers of two and their neighbours over the whole u64 range.
  std::vector<std::uint64_t> probes;
  for (int s = 0; s < 64; ++s) {
    const std::uint64_t p = std::uint64_t{1} << s;
    for (std::uint64_t d : {std::uint64_t{0}, std::uint64_t{1}}) {
      if (p >= d) probes.push_back(p - d);
      probes.push_back(p + d);
    }
  }
  probes.push_back(~std::uint64_t{0});
  for (std::uint64_t v : probes) {
    const std::size_t b = LogHistogram::bucket_of(v);
    ASSERT_LT(b, HistogramSnapshot::kBuckets) << "value " << v;
    EXPECT_GE(v, LogHistogram::bucket_lo(b)) << "value " << v;
    EXPECT_LE(v, LogHistogram::bucket_hi(b)) << "value " << v;
  }
}

TEST(LogHistogramBuckets, BucketsAreContiguousAndOrdered) {
  for (std::size_t b = 1; b < HistogramSnapshot::kBuckets; ++b) {
    EXPECT_EQ(LogHistogram::bucket_lo(b), LogHistogram::bucket_hi(b - 1) + 1)
        << "gap between buckets " << b - 1 << " and " << b;
  }
}

TEST(LogHistogramBuckets, RelativeQuantizationErrorBounded) {
  // Above the linear range each octave has 4 sub-buckets, so a bucket
  // spans 1/4 of its octave: worst-case midpoint error is ~12.5%.
  for (std::size_t b = HistogramSnapshot::kLinear; b < HistogramSnapshot::kBuckets; ++b) {
    const double lo = static_cast<double>(LogHistogram::bucket_lo(b));
    const double hi = static_cast<double>(LogHistogram::bucket_hi(b));
    EXPECT_LE((hi - lo) / lo, 0.251) << "bucket " << b;
  }
}

TEST(LogHistogram, CountSumMinMax) {
  LogHistogram h;
  for (std::uint64_t v : {5u, 100u, 17u, 0u, 99999u}) h.record(v);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.sum, 5u + 100u + 17u + 0u + 99999u);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 99999u);
}

TEST(LogHistogram, PercentilesWithinQuantizationError) {
  LogHistogram h;
  std::mt19937_64 rng(42);
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform over [1, 2^20): exercises many octaves.
    const double e = std::uniform_real_distribution<double>(0.0, 20.0)(rng);
    const auto v = static_cast<std::uint64_t>(std::pow(2.0, e));
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  auto exact = [&](double q) {
    return static_cast<double>(values[static_cast<std::size_t>(
        q * static_cast<double>(values.size() - 1))]);
  };
  const stu::Summary s = h.snapshot().summarize();
  EXPECT_NEAR(s.median / exact(0.5), 1.0, 0.15);
  EXPECT_NEAR(s.p90 / exact(0.9), 1.0, 0.15);
  EXPECT_NEAR(s.p99 / exact(0.99), 1.0, 0.15);
}

TEST(LogHistogram, QuantilesStayWithinExactMinMax) {
  // One sample near either edge of a wide bucket: the bucket midpoint
  // lies outside the observed range, and the quantiles must not.
  const std::size_t b = LogHistogram::bucket_of(140000);
  for (std::uint64_t v : {LogHistogram::bucket_hi(b) - 1, LogHistogram::bucket_lo(b) + 1}) {
    LogHistogram h;
    h.record(v);
    const stu::Summary s = h.snapshot().summarize();
    EXPECT_EQ(s.median, static_cast<double>(v));
    EXPECT_EQ(s.p90, static_cast<double>(v));
    EXPECT_EQ(s.p99, static_cast<double>(v));
  }
}

TEST(LogHistogram, MergeEqualsUnion) {
  LogHistogram a, b, all;
  for (std::uint64_t v = 1; v < 1000; v += 3) {
    (v % 2 ? a : b).record(v);
    all.record(v);
  }
  HistogramSnapshot m = a.snapshot();
  m.merge(b.snapshot());
  const HistogramSnapshot u = all.snapshot();
  EXPECT_EQ(m.count, u.count);
  EXPECT_EQ(m.sum, u.sum);
  EXPECT_EQ(m.min, u.min);
  EXPECT_EQ(m.max, u.max);
  EXPECT_EQ(m.buckets, u.buckets);
}

TEST(LogHistogram, ResetClears) {
  LogHistogram h;
  h.record(123);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.snapshot().sum, 0u);
}

// The unified quantile implementation: unit-weight results must match
// the classic sample-percentile math the bench tables always used.
TEST(SummarizeWeighted, UnitWeightsMatchSamples) {
  stu::Samples samples;
  std::vector<double> sorted;
  for (double v : {4.0, 1.0, 3.0, 2.0}) {
    samples.add(v);
    sorted.push_back(v);
  }
  std::sort(sorted.begin(), sorted.end());
  const stu::Summary a = samples.summarize();
  const stu::Summary b = stu::summarize_weighted(sorted);
  EXPECT_DOUBLE_EQ(a.median, b.median);
  EXPECT_DOUBLE_EQ(a.p90, b.p90);
  EXPECT_DOUBLE_EQ(a.p99, b.p99);
  EXPECT_DOUBLE_EQ(a.mean, b.mean);
  EXPECT_DOUBLE_EQ(a.median, 2.5);  // the historical interpolation
}

TEST(SummarizeWeighted, WeightsExpandSamples) {
  // {1 x3, 10 x1} == the expanded sample set {1,1,1,10}.
  const stu::Summary w = stu::summarize_weighted({1.0, 10.0}, {3, 1});
  const stu::Summary e = stu::summarize_weighted({1.0, 1.0, 1.0, 10.0});
  EXPECT_DOUBLE_EQ(w.median, e.median);
  EXPECT_DOUBLE_EQ(w.p90, e.p90);
  EXPECT_DOUBLE_EQ(w.mean, e.mean);
  EXPECT_EQ(w.n, 4u);
}

TEST(SummarizeWeighted, P99OnKnownDistribution) {
  std::vector<double> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<std::size_t>(i)] = i + 1;
  const stu::Summary s = stu::summarize_weighted(v);
  EXPECT_DOUBLE_EQ(s.median, 50.5);
  EXPECT_NEAR(s.p90, 90.1, 1e-9);
  EXPECT_NEAR(s.p99, 99.01, 1e-9);
}

TEST(MetricsRegistry, SnapshotJsonRoundTrips) {
  auto& reg = stu::MetricsRegistry::instance();
  const int id = reg.add_provider([] {
    return std::string("{\"kind\":\"test\",\"counters\":{\"x\":1}}");
  });
  std::string doc = reg.snapshot_json();
  std::string err;
  EXPECT_TRUE(stu::trace_json_lint(doc, &err)) << err << "\n" << doc;
  EXPECT_NE(doc.find("\"schema\":\"stmp-metrics-v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"kind\":\"test\""), std::string::npos);

  // Unregistration retains one final render for later snapshots.
  reg.remove_provider(id);
  doc = reg.snapshot_json();
  EXPECT_TRUE(stu::trace_json_lint(doc, &err)) << err;
  EXPECT_NE(doc.find("\"kind\":\"test\""), std::string::npos);
  reg.clear_retained();
  doc = reg.snapshot_json();
  EXPECT_EQ(doc.find("\"kind\":\"test\""), std::string::npos);
}

TEST(MetricsRegistry, HistogramJsonIsValid) {
  LogHistogram h;
  for (std::uint64_t v = 0; v < 5000; v += 7) h.record(v);
  const std::string json = h.snapshot().to_json("latency", "ns", 0.5);
  std::string err;
  EXPECT_TRUE(stu::trace_json_lint(json, &err)) << err << "\n" << json;
  EXPECT_NE(json.find("\"name\":\"latency\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\":["), std::string::npos);
}

TEST(MetricsRegistry, WriteSnapshotCreatesLintableFile) {
  auto& reg = stu::MetricsRegistry::instance();
  const int id = reg.add_provider([] {
    return std::string("{\"kind\":\"test\",\"counters\":{\"y\":2}}");
  });
  const std::string path = ::testing::TempDir() + "metrics_test_snapshot.json";
  ASSERT_TRUE(reg.write_snapshot(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text(1 << 16, '\0');
  text.resize(std::fread(text.data(), 1, text.size(), f));
  std::fclose(f);
  std::string err;
  EXPECT_TRUE(stu::trace_json_lint(text, &err)) << err;
  reg.remove_provider(id);
  reg.clear_retained();
}

TEST(MetricsConfig, EnableFlagGatesRecording) {
  stu::metrics_set_enabled(false);
  EXPECT_FALSE(stu::metrics_enabled());
  stu::metrics_set_enabled(true);
  EXPECT_TRUE(stu::metrics_enabled());
  stu::metrics_set_enabled(false);
}

}  // namespace
