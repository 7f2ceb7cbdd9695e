// Unit tests for src/stats: histograms, latency CDFs, registry.
#include <gtest/gtest.h>

#include "core/random.h"
#include "stats/histogram.h"
#include "stats/registry.h"

namespace pfs {
namespace {

TEST(CounterTest, Increment) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Inc();
  c.Inc(4);
  EXPECT_EQ(c.value(), 5u);
}

TEST(HistogramTest, MeanMinMax) {
  Histogram h;
  h.Record(10);
  h.Record(20);
  h.Record(30);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.mean(), 20.0);
  EXPECT_DOUBLE_EQ(h.min(), 10.0);
  EXPECT_DOUBLE_EQ(h.max(), 30.0);
}

TEST(HistogramTest, OutOfRangeGoesToOverflowBuckets) {
  Histogram h;
  h.Record(-5);
  h.Record(50);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.min(), -5.0);
  EXPECT_DOUBLE_EQ(h.max(), 50.0);
}

TEST(HistogramTest, MergeCombines) {
  Histogram a;
  Histogram b;
  a.Record(1);
  b.Record(9);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  EXPECT_DOUBLE_EQ(a.max(), 9.0);
}

TEST(HistogramTest, JsonObjectHoldsMeanAndMax) {
  Histogram h;
  EXPECT_EQ(h.JsonObject("q"), "\"q\":{\"mean\":0.000,\"max\":0.000}");
  h.Record(1);
  h.Record(2);
  EXPECT_EQ(h.JsonObject("q"), "\"q\":{\"mean\":1.500,\"max\":2.000}");
}

TEST(LatencyHistogramTest, MeanIsExact) {
  LatencyHistogram h;
  h.Record(Duration::Millis(10));
  h.Record(Duration::Millis(30));
  EXPECT_EQ(h.mean(), Duration::Millis(20));
  EXPECT_EQ(h.min(), Duration::Millis(10));
  EXPECT_EQ(h.max(), Duration::Millis(30));
}

TEST(LatencyHistogramTest, PercentileWithinBucketResolution) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) {
    h.Record(Duration::Micros(i * 100));  // 0.1ms .. 100ms uniform
  }
  // Geometric buckets have ~9% relative resolution.
  const double p50 = h.Percentile(0.5).ToMillisF();
  EXPECT_NEAR(p50, 50.0, 6.0);
  const double p99 = h.Percentile(0.99).ToMillisF();
  EXPECT_NEAR(p99, 99.0, 10.0);
}

TEST(LatencyHistogramTest, FractionBelow) {
  LatencyHistogram h;
  for (int i = 0; i < 80; ++i) {
    h.Record(Duration::Micros(500));  // cache-hit-ish
  }
  for (int i = 0; i < 20; ++i) {
    h.Record(Duration::Millis(17));  // full rotation
  }
  EXPECT_NEAR(h.FractionBelow(Duration::Millis(2)), 0.8, 0.02);
  EXPECT_NEAR(h.FractionBelow(Duration::Millis(50)), 1.0, 0.001);
}

TEST(LatencyHistogramTest, CdfIsMonotone) {
  LatencyHistogram h;
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    h.Record(Duration::Micros(static_cast<int64_t>(rng.NextExponential(8000.0)) + 100));
  }
  const auto cdf = h.Cdf();
  ASSERT_FALSE(cdf.empty());
  for (size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].fraction, cdf[i - 1].fraction);
    EXPECT_GT(cdf[i].millis, cdf[i - 1].millis);
  }
  EXPECT_DOUBLE_EQ(cdf.back().fraction, 1.0);
}

TEST(LatencyHistogramTest, SubMicrosecondGoesToFirstBucket) {
  LatencyHistogram h;
  h.Record(Duration::Nanos(10));
  h.Record(Duration());
  EXPECT_EQ(h.count(), 2u);
  EXPECT_LE(h.Percentile(1.0), Duration::Micros(3));
}

TEST(LatencyHistogramTest, MergeCombines) {
  LatencyHistogram a;
  LatencyHistogram b;
  a.Record(Duration::Millis(1));
  b.Record(Duration::Millis(3));
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.mean(), Duration::Millis(2));
}

TEST(LatencyHistogramTest, MsJsonObjectPercentilesStayWithinMax) {
  LatencyHistogram h;
  EXPECT_EQ(h.MsJsonObject("lat_ms"),
            "\"lat_ms\":{\"mean\":0.0000,\"p50\":0.0000,\"p95\":0.0000,\"p99\":0.0000}");
  // 9 ms sits low in a bucket that reaches 9.44 ms: the tail percentiles
  // report the largest sample, not the bucket's bound.
  h.Record(Duration::Millis(8));
  h.Record(Duration::Millis(9));
  EXPECT_EQ(h.MsJsonObject("lat_ms"),
            "\"lat_ms\":{\"mean\":8.5000,\"p50\":8.3886,\"p95\":9.0000,\"p99\":9.0000}");
}

class FakeSource : public StatSource {
 public:
  explicit FakeSource(std::string name) : name_(std::move(name)) {}
  std::string stat_name() const override { return name_; }
  std::string StatJson() const override { return "{\"source\":\"" + name_ + "\"}"; }

 private:
  std::string name_;
};

TEST(StatsRegistryTest, ReportsAllSources) {
  StatsRegistry registry;
  FakeSource a("cache");
  FakeSource b("disk0");
  registry.Register(&a);
  registry.Register(&b);
  EXPECT_EQ(registry.ReportAll(), "== cache ==\n" + a.StatJson() + "\n== disk0 ==\n" +
                                      b.StatJson() + "\n");
  EXPECT_EQ(registry.ReportJson(),
            "{\"cache\":" + a.StatJson() + ",\"disk0\":" + b.StatJson() + "}");
}

}  // namespace
}  // namespace pfs
