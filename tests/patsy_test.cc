// Integration tests for the Patsy simulator instantiation: full topology,
// trace replay, policy behaviour end to end.
#include <gtest/gtest.h>

#include "patsy/patsy.h"
#include "workload/generator.h"

namespace pfs {
namespace {

PatsyConfig SmallConfig(const std::string& flush_policy) {
  PatsyConfig config;
  config.disks_per_bus = {2, 1};  // 2 busses, 3 disks: fast tests
  config.num_filesystems = 4;
  config.cache_bytes = 2 * kMiB;
  config.nvram_bytes = 256 * kKiB;
  config.flush_policy = flush_policy;
  config.max_inodes = 2048;
  return config;
}

std::vector<TraceRecord> SmallTrace(double scale = 0.05) {
  WorkloadParams params = WorkloadParams::SpriteLike("1a", scale);
  params.num_filesystems = 4;
  params.clients = 4;
  return GenerateWorkload(params);
}

TEST(PatsyTest, ServerSetupBuildsTopology) {
  PatsyServer server(SmallConfig("ups"));
  ASSERT_TRUE(server.Setup().ok());
  EXPECT_EQ(server.busses().size(), 2u);
  EXPECT_EQ(server.disks().size(), 3u);
  EXPECT_EQ(server.drivers().size(), 3u);
}

TEST(PatsyTest, ReplayCompletesWithoutErrors) {
  auto result = RunTraceSimulation(SmallConfig("ups"), SmallTrace());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->ops, 100u);
  EXPECT_EQ(result->errors, 0u);
  EXPECT_GT(result->simulated_time, Duration::Seconds(1));
  EXPECT_GT(result->cache_hit_rate, 0.0);
}

TEST(PatsyTest, DeterministicAcrossRuns) {
  auto a = RunTraceSimulation(SmallConfig("ups"), SmallTrace());
  auto b = RunTraceSimulation(SmallConfig("ups"), SmallTrace());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->ops, b->ops);
  EXPECT_EQ(a->overall.mean().nanos(), b->overall.mean().nanos());
  EXPECT_EQ(a->blocks_flushed, b->blocks_flushed);
}

TEST(PatsyTest, UpsAbsorbsWritesWriteDelayFlushes) {
  auto ups = RunTraceSimulation(SmallConfig("ups"), SmallTrace(0.1));
  auto wd = RunTraceSimulation(SmallConfig("write-delay"), SmallTrace(0.1));
  ASSERT_TRUE(ups.ok());
  ASSERT_TRUE(wd.ok());
  // The 30-second-update policy writes much more data to disk than the
  // UPS write-saving policy — the paper's core effect.
  EXPECT_GT(wd->blocks_flushed, ups->blocks_flushed);
}

TEST(PatsyTest, NvramBoundsDirtyData) {
  auto result = RunTraceSimulation(SmallConfig("nvram-whole"), SmallTrace(0.1));
  ASSERT_TRUE(result.ok());
  // Dirty data had to drain through the small NVRAM: flushes happened.
  EXPECT_GT(result->blocks_flushed, 0u);
  EXPECT_EQ(result->errors, 0u);
}

TEST(PatsyTest, IntervalReportsAtFifteenMinutes) {
  PatsyConfig config = SmallConfig("ups");
  WorkloadParams params = WorkloadParams::SpriteLike("1a", 0.02);
  params.num_filesystems = 4;
  params.clients = 2;
  // Stretch the trace beyond 15 simulated minutes with a final idle stat.
  auto records = GenerateWorkload(params);
  TraceRecord tail;
  tail.time_us = Duration::Minutes(16).micros();
  tail.client = 0;
  tail.op = TraceOp::kStat;
  tail.path = records.empty() ? "/fs0/f0" : records.back().path;
  // Ensure the path exists: stat the first created file instead.
  for (const auto& r : records) {
    if (r.op == TraceOp::kOpen && r.create) {
      tail.path = r.path;
      break;
    }
  }
  records.push_back(tail);
  auto result = RunTraceSimulation(config, std::move(records));
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->interval_reports.size(), 1u);
  EXPECT_NE(result->interval_reports[0].find("interval report"), std::string::npos);
  EXPECT_NE(result->interval_reports[0].find("== cache ==\n{"), std::string::npos);
}

TEST(PatsyTest, GuessingLayoutReplays) {
  PatsyConfig config = SmallConfig("ups");
  config.layout = "guessing";
  auto result = RunTraceSimulation(config, SmallTrace());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->ops, 100u);
}

TEST(PatsyTest, FfsLayoutReplays) {
  PatsyConfig config = SmallConfig("ups");
  config.layout = "ffs";
  auto result = RunTraceSimulation(config, SmallTrace());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->ops, 100u);
}

TEST(PatsyTest, CacheHitsLandUnderTwoMilliseconds) {
  // The paper's CDF structure: operations serviced from the cache complete
  // within 2 ms; disk-serviced ones take longer.
  auto result = RunTraceSimulation(SmallConfig("ups"), SmallTrace(0.1));
  ASSERT_TRUE(result.ok());
  const double frac_fast = result->overall.FractionBelow(Duration::Millis(2));
  EXPECT_GT(frac_fast, 0.3);  // plenty of cache hits
  EXPECT_LT(frac_fast, 1.0);  // and some disk-serviced operations
}

}  // namespace
}  // namespace pfs
