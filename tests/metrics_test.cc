// Tests for the live metrics plane (obs/metrics, obs/metrics_http): the HDR
// bucket scheme, per-shard cell aggregation under a real sharded scheduler,
// registry dedup and exposition formats, end-to-end counter exactness in a
// sharded striped system on both backends, identical client latency samples
// from identical systems, scraping the HTTP endpoint over a real socket
// while the workload is running, and /statz serving every stat source.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/json.h"
#include "obs/metrics.h"
#include "obs/metrics_http.h"
#include "sched/affinity.h"
#include "sched/shard.h"
#include "system/system_builder.h"

namespace pfs {
namespace {

// -- HDR bucket scheme ------------------------------------------------------

TEST(HistBucketTest, IndexAndBoundRoundTrip) {
  // Every value maps into a bucket whose bound is >= the value, and the
  // previous bucket's bound is < the value (the bucket is the tightest one).
  std::vector<uint64_t> probes = {0, 1, 7, 8, 9, 100, 1023, 1024, 4096};
  for (uint64_t base : {uint64_t{1} << 20, uint64_t{1} << 40, uint64_t{1} << 62}) {
    probes.push_back(base - 1);
    probes.push_back(base);
    probes.push_back(base + base / 3);
  }
  probes.push_back(UINT64_MAX);
  for (uint64_t v : probes) {
    const size_t i = HistBucketIndex(v);
    ASSERT_LT(i, kHistBuckets) << v;
    EXPECT_GE(HistBucketHigh(i), v) << v;
    if (i > 0) {
      EXPECT_LT(HistBucketHigh(i - 1), v) << v;
    }
  }
  EXPECT_EQ(HistBucketHigh(kHistBuckets - 1), UINT64_MAX);
}

TEST(HistBucketTest, RelativeWidthAtMostOneEighth) {
  // Above the unit buckets, bucket width / lower bound <= 1/8 = 12.5%: the
  // advertised bound on percentile error.
  for (size_t i = kHistSubBuckets + 1; i < kHistBuckets - 1; ++i) {
    const double lo = static_cast<double>(HistBucketHigh(i - 1)) + 1;
    const double hi = static_cast<double>(HistBucketHigh(i));
    EXPECT_LE(hi - lo + 1, lo / 8 + 1) << "bucket " << i;
  }
}

// -- Histogram percentiles --------------------------------------------------

TEST(HistogramMetricTest, PercentileWithinOneBucketOfExact) {
  MetricRegistry reg(1, "pfs");
  HistogramMetric* h = reg.Histogram("t_seconds", "test");
  const int n = 10000;
  for (int i = 1; i <= n; ++i) {
    h->Record(static_cast<uint64_t>(i));
  }
  EXPECT_EQ(h->Count(), static_cast<uint64_t>(n));
  for (double q : {0.0, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    // The exact q-quantile of {1..n} is the ceil(q*n)-th value; the metric
    // reports a bucket upper bound, so the answer must land in the exact
    // value's bucket (or the adjacent one when the quantile sits on an edge).
    const uint64_t exact = static_cast<uint64_t>(
        std::max<int64_t>(1, static_cast<int64_t>(q * n + 0.9999)));
    const uint64_t got = h->Percentile(q);
    const auto exact_bucket = static_cast<int64_t>(HistBucketIndex(exact));
    const auto got_bucket = static_cast<int64_t>(HistBucketIndex(got));
    EXPECT_LE(std::abs(got_bucket - exact_bucket), 1)
        << "q=" << q << " exact=" << exact << " got=" << got;
    EXPECT_GE(got, exact) << "q=" << q;  // cumulative counts never undershoot
  }
  EXPECT_NEAR(h->Mean(), (n + 1) / 2.0, (n + 1) / 2.0 * 0.125);
}

TEST(HistogramMetricTest, EmptyHistogramReportsZero) {
  MetricRegistry reg(1, "pfs");
  HistogramMetric* h = reg.Histogram("t_seconds", "test");
  EXPECT_EQ(h->Count(), 0u);
  EXPECT_EQ(h->Percentile(0.99), 0u);
  EXPECT_DOUBLE_EQ(h->Mean(), 0.0);
}

// -- Per-shard cells under a real sharded scheduler -------------------------

TEST(MetricShardingTest, CountersAggregateAcrossShardsAndOverflow) {
  SchedulerGroup group(4, /*virtual_clock=*/true, 42);
  MetricRegistry reg(group.size(), "pfs");
  CounterMetric* counter = reg.Counter("events_total", "test");
  GaugeMetric* gauge = reg.Gauge("depth", "test");
  HistogramMetric* hist = reg.Histogram("lat_seconds", "test");
  // This thread is outside scheduler control: it writes the overflow slot.
  counter->Inc(7);
  for (size_t s = 0; s < group.size(); ++s) {
    Scheduler* shard = group.shard(s);
    shard->Spawn("writer" + std::to_string(s),
                 [](Scheduler* sched, size_t idx, CounterMetric* c, GaugeMetric* g,
                    HistogramMetric* h) -> Task<> {
                   for (size_t i = 0; i < (idx + 1) * 100; ++i) {
                     c->Inc();
                     h->Record(idx + 1);
                   }
                   g->Set(static_cast<int64_t>(idx + 1));
                   co_await sched->Sleep(Duration::Micros(10));
                 }(shard, s, counter, gauge, hist));
  }
  group.Run();
  EXPECT_EQ(counter->Total(), 7u + 100 + 200 + 300 + 400);
  EXPECT_EQ(gauge->Total(), 1 + 2 + 3 + 4);
  EXPECT_EQ(hist->Count(), 1000u);
  EXPECT_EQ(hist->Sum(), 100u * 1 + 200 * 2 + 300 * 3 + 400 * 4);
}

// -- Registry shape ---------------------------------------------------------

TEST(MetricRegistryTest, FindOrCreateDedupsFamiliesAndInstances) {
  MetricRegistry reg(2, "pfs");
  CounterMetric* a = reg.Counter("ops_total", "ops", "op=\"read\"");
  CounterMetric* b = reg.Counter("ops_total", "ops", "op=\"read\"");
  CounterMetric* c = reg.Counter("ops_total", "ops", "op=\"write\"");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  a->Inc(3);
  c->Inc(5);
  const std::string text = reg.PrometheusText();
  // One family announcement, two sample lines.
  EXPECT_EQ(text.find("# TYPE pfs_ops_total counter"),
            text.rfind("# TYPE pfs_ops_total counter"));
  EXPECT_NE(text.find("pfs_ops_total{op=\"read\"} 3"), std::string::npos) << text;
  EXPECT_NE(text.find("pfs_ops_total{op=\"write\"} 5"), std::string::npos) << text;
  EXPECT_EQ(reg.scrapes(), 1u);
}

TEST(MetricRegistryTest, PrometheusHistogramHasCumulativeBucketsAndInf) {
  MetricRegistry reg(1, "pfs");
  HistogramMetric* h = reg.Histogram("io_seconds", "io latency", "", 1e-9);
  h->Record(1000);   // 1 us
  h->Record(1000);
  h->Record(50000);  // 50 us
  const std::string text = reg.PrometheusText();
  EXPECT_NE(text.find("# TYPE pfs_io_seconds histogram"), std::string::npos) << text;
  EXPECT_NE(text.find("pfs_io_seconds_bucket{le=\"+Inf\"} 3"), std::string::npos) << text;
  EXPECT_NE(text.find("pfs_io_seconds_count 3"), std::string::npos) << text;
  // The le bounds are scaled into seconds: every bound must be < 1.
  for (size_t pos = text.find("le=\""); pos != std::string::npos;
       pos = text.find("le=\"", pos + 1)) {
    const std::string bound = text.substr(pos + 4, text.find('"', pos + 4) - pos - 4);
    if (bound != "+Inf") {
      EXPECT_LT(std::stod(bound), 1.0) << bound;
    }
  }
}

TEST(MetricRegistryTest, JsonSnapshotIsFlatObject) {
  MetricRegistry reg(1, "pfs");
  reg.Counter("hits_total", "hits", "shard=\"0\"")->Inc(4);
  reg.Histogram("lat_seconds", "lat")->Record(100);
  const std::string json = reg.JsonSnapshot();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"pfs_hits_total{shard=0}\":4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"pfs_lat_seconds\":{\"count\":1"), std::string::npos) << json;
}

// JsonSnapshot and LatencyMsJsonObject take p50/p95/p99 from one walk of the
// bins and skip the bins of an empty histogram; both must still print what
// three HistPercentile calls give.
TEST(MetricRegistryTest, RenderedQuantilesMatchHistPercentile) {
  MetricRegistry reg(1, "pfs");
  HistogramMetric* empty = reg.Histogram("empty_seconds", "test", "", 1e-9);
  HistogramMetric* one = reg.Histogram("one_seconds", "test", "", 1e-9);
  HistogramMetric* spread = reg.Histogram("spread_seconds", "test", "", 1e-9);
  one->Record(1234567);
  for (uint64_t i = 1; i <= 2000; ++i) {
    spread->Record(i * i * 37);
  }
  const std::string json = reg.JsonSnapshot();
  for (const auto& [name, h] : {std::pair{"pfs_empty_seconds", empty},
                                std::pair{"pfs_one_seconds", one},
                                std::pair{"pfs_spread_seconds", spread}}) {
    const std::vector<uint64_t> bins = h->Bins();
    const double p50 = static_cast<double>(HistPercentile(bins, 0.50));
    const double p95 = static_cast<double>(HistPercentile(bins, 0.95));
    const double p99 = static_cast<double>(HistPercentile(bins, 0.99));
    char want[256];
    snprintf(want, sizeof(want),
             "\"%s\":{\"count\":%llu,\"sum\":%.9g,\"mean\":%.9g,\"p50\":%.9g,\"p95\":%.9g,"
             "\"p99\":%.9g}",
             name, static_cast<unsigned long long>(h->Count()),
             static_cast<double>(h->Sum()) * 1e-9, h->Mean() * 1e-9, p50 * 1e-9, p95 * 1e-9,
             p99 * 1e-9);
    EXPECT_NE(json.find(want), std::string::npos) << want << "\n" << json;
    snprintf(want, sizeof(want), "\"k\":{\"mean\":%.4f,\"p50\":%.4f,\"p95\":%.4f,\"p99\":%.4f}",
             h->Mean() * 1e-6, p50 * 1e-6, p95 * 1e-6, p99 * 1e-6);
    EXPECT_EQ(h->LatencyMsJsonObject("k"), want);
  }
  EXPECT_LT(spread->Percentile(0.50), spread->Percentile(0.95));  // the spread shows

  // The multi-quantile walk agrees with one HistPercentile per quantile.
  const std::vector<uint64_t> bins = spread->Bins();
  const std::vector<double> qs = {0.0, 0.25, 0.5, 0.5, 0.9, 0.95, 0.99, 1.0};
  std::vector<uint64_t> got(qs.size());
  HistPercentiles(bins, qs, got);
  for (size_t k = 0; k < qs.size(); ++k) {
    EXPECT_EQ(got[k], HistPercentile(bins, qs[k])) << "q=" << qs[k];
  }
}

TEST(MetricRegistryTest, ValidMetricPrefixRule) {
  EXPECT_TRUE(ValidMetricPrefix("pfs"));
  EXPECT_TRUE(ValidMetricPrefix("_x9"));
  EXPECT_FALSE(ValidMetricPrefix(""));
  EXPECT_FALSE(ValidMetricPrefix("9pfs"));
  EXPECT_FALSE(ValidMetricPrefix("pfs-x"));
}

// -- End-to-end: sharded striped system, both backends ----------------------

// Two striped file systems pinned to different shards of a 4-shard group.
SystemConfig StripedShardedConfig(const std::string& image) {
  SystemConfig config;
  config.disks_per_bus = {2, 2};
  config.num_filesystems = 2;
  config.shards = 4;
  config.fs_shards = {0, 3};
  VolumeSpec fs0;
  fs0.kind = "striped";
  fs0.members = {0, 1};
  fs0.stripe_unit_kb = 16;
  VolumeSpec fs1;
  fs1.kind = "striped";
  fs1.members = {2, 3};
  fs1.stripe_unit_kb = 16;
  config.volumes = {fs0, fs1};
  config.cache_bytes = 2 * kMiB;
  config.lfs_segment_blocks = 64;
  config.max_inodes = 1024;
  config.flush_policy = "ups";
  config.image_path = image;
  config.image_bytes = 16 * kMiB;
  config.metrics.enabled = true;
  config.metrics.port = 0;  // ephemeral: parallel ctest runs must not collide
  return config;
}

// `ops` rounds of open/write/read/close alternating between the two mounts,
// then one SyncAll: the exact per-op counts the registry must report.
Task<Status> CountedWorkload(System* sys, int ops) {
  LocalClient* client = sys->client();
  OpenOptions create;
  create.create = true;
  for (int i = 0; i < ops; ++i) {
    const std::string path =
        "/" + sys->mount_name(i % 2) + "/m" + std::to_string(i % 8);
    auto fd = co_await client->Open(path, create);
    PFS_CO_RETURN_IF_ERROR(fd.status());
    auto wrote = co_await client->Write(*fd, 0, 4096 + (i % 4) * 1024, {});
    PFS_CO_RETURN_IF_ERROR(wrote.status());
    auto read = co_await client->Read(*fd, 0, 4096, {});
    PFS_CO_RETURN_IF_ERROR(read.status());
    PFS_CO_RETURN_IF_ERROR(co_await client->Close(*fd));
  }
  co_return co_await client->SyncAll();
}

class MetricsSystemTest : public ::testing::Test {
 protected:
  void SetUp() override {
    image_ = testing::TempDir() + "/pfs_metrics_test.img";
    RemoveImages();
  }
  void TearDown() override { RemoveImages(); }
  void RemoveImages() {
    std::remove(image_.c_str());
    for (int d = 1; d < 4; ++d) {
      std::remove((image_ + "." + std::to_string(d)).c_str());
    }
  }
  std::string image_;
};

TEST_F(MetricsSystemTest, ShardedCountersEqualExactOpCountsOnBothBackends) {
  for (BackendKind backend : {BackendKind::kSimulated, BackendKind::kFileBacked}) {
    SystemConfig config = StripedShardedConfig(image_);
    config.backend = backend;
    auto built = SystemBuilder::Build(config);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    System& sys = **built;
    ASSERT_TRUE(sys.Setup().ok());
    ASSERT_NE(sys.metrics(), nullptr);

    const int ops = 64;
    Status status(ErrorCode::kAborted);
    sys.scheduler()->Spawn("test.workload", [](System* s, int n, Status* out) -> Task<> {
      *out = co_await CountedWorkload(s, n);
    }(&sys, ops, &status));
    sys.RunToCompletion();
    ASSERT_TRUE(status.ok()) << status.ToString();

    // The op counters are per-op-label instances of one family; the two file
    // systems live on different shards, so each total spans multiple cells.
    MetricRegistry* reg = sys.metrics();
    EXPECT_EQ(reg->Counter("client_ops_total", "", "op=\"open\"")->Total(),
              static_cast<uint64_t>(ops));
    EXPECT_EQ(reg->Counter("client_ops_total", "", "op=\"write\"")->Total(),
              static_cast<uint64_t>(ops));
    EXPECT_EQ(reg->Counter("client_ops_total", "", "op=\"read\"")->Total(),
              static_cast<uint64_t>(ops));
    EXPECT_EQ(reg->Counter("client_ops_total", "", "op=\"sync_all\"")->Total(), 1u);
    // Per-shard cache counters: each registry instance is labelled with the
    // shard that owns the cache, so it is what that cache's accessors read.
    uint64_t traffic = 0;
    for (int s = 0; s < sys.shard_count(); ++s) {
      const std::string label = "shard=\"" + std::to_string(s) + "\"";
      const uint64_t hits = reg->Counter("cache_hits_total", "", label)->Total();
      const uint64_t misses = reg->Counter("cache_misses_total", "", label)->Total();
      EXPECT_EQ(hits, sys.shard_cache(s)->hits()) << "shard " << s;
      EXPECT_EQ(misses, sys.shard_cache(s)->misses()) << "shard " << s;
      traffic += hits + misses;
    }
    EXPECT_GT(traffic, 0u);
    RemoveImages();
  }
}

// The 1-in-64 client latency sample depends only on the system's own op
// sequence: two identical systems built one after another on this thread
// record identical client histograms (a tick shared across systems would
// start the second run's sampling where the first one stopped).
TEST_F(MetricsSystemTest, IdenticalSystemsSampleIdenticalClientLatencies) {
  std::vector<std::vector<uint64_t>> runs;
  for (int run = 0; run < 2; ++run) {
    SystemConfig config = StripedShardedConfig(image_);
    config.backend = BackendKind::kSimulated;
    auto built = SystemBuilder::Build(config);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    System& sys = **built;
    ASSERT_TRUE(sys.Setup().ok());
    Status status(ErrorCode::kAborted);
    sys.scheduler()->Spawn("test.workload", [](System* s, int n, Status* out) -> Task<> {
      *out = co_await CountedWorkload(s, n);
    }(&sys, 100, &status));
    sys.RunToCompletion();
    ASSERT_TRUE(status.ok()) << status.ToString();

    std::vector<uint64_t> samples;
    for (const char* op : {"open", "read", "write", "fsync", "sync_all"}) {
      const std::string label = std::string("op=\"") + op + "\"";
      const HistogramMetric* h =
          sys.metrics()->Histogram("client_op_seconds", "", label, 1e-9);
      samples.push_back(h->Count());
      for (uint64_t bin : h->Bins()) {
        samples.push_back(bin);
      }
    }
    const std::string read = "op=\"read\"";
    EXPECT_GT(sys.metrics()->Histogram("client_op_seconds", "", read, 1e-9)->Count(), 0u);
    runs.push_back(std::move(samples));
  }
  EXPECT_EQ(runs[0], runs[1]);
}

// -- Scraping over a live socket --------------------------------------------

// Blocking one-shot HTTP GET against 127.0.0.1:port; empty string on error.
std::string HttpGet(uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return "";
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  (void)!::write(fd, req.data(), req.size());
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string Body(const std::string& response) {
  const size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

TEST_F(MetricsSystemTest, ScrapeDuringActiveLoadIsAffinitySafe) {
  // Shard-ownership assertions armed even in Release: a scrape that touched
  // component state from the HTTP thread would die here, not in CI's
  // sanitizer job.
  SetAffinityChecksForTesting(true);
  SystemConfig config = StripedShardedConfig(image_);
  config.backend = BackendKind::kSimulated;
  auto built = SystemBuilder::Build(config);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  System& sys = **built;
  ASSERT_TRUE(sys.Setup().ok());
  const uint16_t port = sys.metrics_port();
  ASSERT_NE(port, 0);

  Status status(ErrorCode::kAborted);
  sys.scheduler()->Spawn("test.workload", [](System* s, int n, Status* out) -> Task<> {
    *out = co_await CountedWorkload(s, n);
  }(&sys, 400, &status));

  // Scrape continuously from a foreign OS thread while the shards run.
  std::atomic<bool> done{false};
  std::vector<std::string> scrapes;
  std::string health;
  std::thread scraper([&] {
    // At least two scrapes even if the lockstep run finishes first: the
    // server stays up until System teardown, so late scrapes still count.
    while (!done.load(std::memory_order_relaxed) || scrapes.size() < 2) {
      const std::string body = Body(HttpGet(port, "/metrics"));
      if (!body.empty()) {
        scrapes.push_back(body);
      }
      if (health.empty()) {
        health = Body(HttpGet(port, "/healthz"));
      }
    }
  });
  sys.RunToCompletion();
  done.store(true, std::memory_order_relaxed);
  scraper.join();
  SetAffinityChecksForTesting(false);
  ASSERT_TRUE(status.ok()) << status.ToString();

  ASSERT_GE(scrapes.size(), 2u);
  for (const std::string& body : scrapes) {
    EXPECT_NE(body.find("# TYPE pfs_client_ops_total counter"), std::string::npos);
  }
  // Counters are monotonic between the first and last mid-run scrape: the
  // open counter's parsed value must not decrease.
  auto open_count = [](const std::string& body) -> double {
    const std::string needle = "pfs_client_ops_total{op=\"open\"} ";
    const size_t pos = body.find(needle);
    return pos == std::string::npos ? 0.0 : std::stod(body.substr(pos + needle.size()));
  };
  EXPECT_LE(open_count(scrapes.front()), open_count(scrapes.back()));
  EXPECT_NE(health.find("\"ok\":true"), std::string::npos) << health;
  EXPECT_NE(health.find("\"shards\""), std::string::npos) << health;
  EXPECT_GE(sys.metrics()->scrapes(), 2u);

  // The end-of-run percentile objects in StatJson come from the same
  // histograms the scrape rendered, so the keys must be present.
  const std::string stats = sys.stats().ReportJson();
  EXPECT_NE(stats.find("\"latency_ms\""), std::string::npos);
  EXPECT_NE(stats.find("\"fill_ms\""), std::string::npos);
}

// /statz serves the stats sampler's latest gather. Fetched while the run is
// alive, that is a periodic gather, read shard by shard through CallOn hops:
// one object with a member per stat source, exactly the sources ReportJson()
// lists. Fetched after the run, it is the end-of-run gather, which lists the
// same members in the same order.
TEST_F(MetricsSystemTest, StatzServesEveryStatSourceOnFileBacked) {
  SystemConfig config = StripedShardedConfig(image_);
  config.backend = BackendKind::kFileBacked;
  auto built = SystemBuilder::Build(config);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  System& sys = **built;
  ASSERT_TRUE(sys.Setup().ok());
  ASSERT_NE(sys.stats_sampler(), nullptr);
  const uint16_t port = sys.metrics_port();
  ASSERT_NE(port, 0);

  // The workload holds the run open until the mid-run fetch has landed, so
  // that fetch cannot read the end-of-run gather.
  std::atomic<bool> fetched{false};
  std::string live;
  std::thread fetcher([&] {
    const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (std::chrono::steady_clock::now() < give_up) {
      const std::string response = HttpGet(port, "/statz");
      if (response.find(" 200 ") != std::string::npos) {  // 503 until the first gather
        live = Body(response);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    fetched.store(true);
  });
  Status status(ErrorCode::kAborted);
  sys.scheduler()->Spawn(
      "test.workload",
      [](System* s, int n, const std::atomic<bool>* fetched, Status* out) -> Task<> {
        *out = co_await CountedWorkload(s, n);
        while (!fetched->load()) {
          co_await s->scheduler()->Sleep(Duration::Millis(1));
        }
      }(&sys, 64, &fetched, &status));
  sys.RunToCompletion();
  fetcher.join();
  ASSERT_TRUE(status.ok()) << status.ToString();

  const auto names = [](const std::string& json) {
    std::vector<std::string> out;
    auto doc = ParseJson(json);
    EXPECT_TRUE(doc.ok()) << doc.status().ToString() << "\n" << json;
    if (doc.ok()) {
      EXPECT_TRUE(doc->is_object());
      for (const auto& member : doc->object) {
        out.push_back(member.first);
      }
    }
    return out;
  };
  const auto sorted = [](std::vector<std::string> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  const std::vector<std::string> periodic = names(live);
  const std::vector<std::string> report = names(sys.stats().ReportJson());
  ASSERT_FALSE(periodic.empty()) << "no /statz answer while the run was alive";
  EXPECT_EQ(periodic.size(), report.size());
  EXPECT_EQ(sorted(periodic), sorted(report));
  EXPECT_EQ(std::count(periodic.begin(), periodic.end(), "sched.shard0"), 1);
  EXPECT_EQ(std::count(periodic.begin(), periodic.end(), "cache.shard0"), 1);

  const std::string response = HttpGet(port, "/statz");
  ASSERT_NE(response.find(" 200 "), std::string::npos) << response;
  EXPECT_EQ(names(Body(response)), periodic);
}

TEST(MetricsHttpTest, UnknownPathIs404AndStopIsIdempotent) {
  MetricsHttpServer server(0);
  server.Handle("/metrics", [](std::string* body, std::string* type) {
    *body = "# HELP pfs_x_total x\n# TYPE pfs_x_total counter\npfs_x_total 1\n";
    *type = "text/plain; version=0.0.4; charset=utf-8";
    return true;
  });
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);
  const std::string ok = HttpGet(server.port(), "/metrics");
  EXPECT_NE(ok.find("200"), std::string::npos);
  EXPECT_NE(Body(ok).find("pfs_x_total 1"), std::string::npos);
  const std::string missing = HttpGet(server.port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);
  EXPECT_GE(server.requests_served(), 2u);
  server.Stop();
  server.Stop();
}

}  // namespace
}  // namespace pfs
