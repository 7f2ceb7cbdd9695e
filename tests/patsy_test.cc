// Integration tests for the Patsy simulator instantiation: full topology,
// trace replay, policy behaviour end to end.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "core/json.h"
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

// Paper §4 shows the measurements "every 15 minutes of simulation time":
// with trace.sample_ms = 900000 the stats sampler streams one cumulative
// report per 15 simulated minutes next to trace.file.
TEST(PatsyTest, SamplerReportsEveryFifteenMinutes) {
  PatsyConfig config = SmallConfig("ups");
  config.trace.sample_ms = 900000;
  config.trace.file = testing::TempDir() + "/pfs_patsy_reports.json";
  const std::string samples_path = TraceSamplesPath(config.trace.file);
  WorkloadParams params = WorkloadParams::SpriteLike("1a", 0.02);
  params.num_filesystems = 4;
  params.clients = 2;
  // Stretch the trace beyond 30 simulated minutes with a final stat of the
  // first created file.
  auto records = GenerateWorkload(params);
  TraceRecord tail;
  tail.time_us = Duration::Minutes(31).micros();
  tail.client = 0;
  tail.op = TraceOp::kStat;
  for (const auto& r : records) {
    if (r.op == TraceOp::kOpen && r.create) {
      tail.path = r.path;
      break;
    }
  }
  ASSERT_FALSE(tail.path.empty());
  records.push_back(tail);
  auto result = RunTraceSimulation(config, std::move(records));
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  std::vector<JsonValue> reports;
  {
    std::ifstream in(samples_path);
    ASSERT_TRUE(in.good()) << samples_path;
    for (std::string line; std::getline(in, line);) {
      auto report = ParseJson(line);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      reports.push_back(std::move(*report));
    }
  }
  std::remove(samples_path.c_str());
  // One at the start, then at 15 and 30 minutes, and one more when the run
  // ends, after the stat at 31.
  ASSERT_EQ(reports.size(), 4u);
  double last_ops = 0;
  for (size_t i = 0; i < reports.size(); ++i) {
    if (i > 0 && i < 3) {
      EXPECT_NEAR(reports[i].Find("t_ms")->number_value -
                      reports[i - 1].Find("t_ms")->number_value,
                  900000.0, 1e-3);
    }
    const JsonValue* stats = reports[i].Find("stats");
    ASSERT_NE(stats, nullptr);
    ASSERT_NE(stats->Find("cache"), nullptr);
    const JsonValue* replayer = stats->Find("replayer");
    ASSERT_NE(replayer, nullptr);
    // Cumulative: the count never drops between reports.
    EXPECT_GE(replayer->Find("ops")->number_value, last_ops);
    last_ops = replayer->Find("ops")->number_value;
  }
  // The last line is the whole run: it ends with the run, and counts every
  // replayed op.
  EXPECT_NEAR(reports[3].Find("t_ms")->number_value, result->simulated_time.ToMillisF(),
              1e-3);
  EXPECT_GE(reports[3].Find("t_ms")->number_value,
            static_cast<double>(Duration::Minutes(31).millis()));
  EXPECT_GT(last_ops, 0.0);
  EXPECT_EQ(last_ops, static_cast<double>(result->ops));
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
