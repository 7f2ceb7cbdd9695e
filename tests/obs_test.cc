// Tests for the observability subsystem (obs/ + core/json):
//  - the strict JSON parser accepts/rejects what it should,
//  - every StatSource's hand-assembled StatJson() — and the registry's
//    combined ReportJson() — parses with that parser on both backends, so a
//    stray comma can never ship a corrupt BENCH_*.json,
//  - percentile fields (p50/p95/p99) are present in driver, volume, and
//    cache JSON,
//  - a traced run produces spans for every pipeline stage, with every span
//    tied to a client root trace id, and exports a parseable Chrome trace,
//  - tracing off means no recorder is built and nothing records,
//  - the recorder keeps every span from every OS thread, in record order
//    per thread,
//  - spawned threads inherit the spawner's trace context,
//  - the StatsSampler streams a time series that outlives its system,
//  - every count and latency a report reads is cumulative: a second workload
//    raises them, on volumes and drivers alike.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "client/client_interface.h"
#include "core/json.h"
#include "obs/stats_sampler.h"
#include "obs/trace.h"
#include "system/system_builder.h"

namespace pfs {
namespace {

// -- core/json ---------------------------------------------------------------

TEST(JsonParserTest, Primitives) {
  auto v = ParseJson("{\"a\":1,\"b\":-2.5e3,\"c\":true,\"d\":null,\"e\":\"x\\n\\\"y\\\"\"}");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  ASSERT_TRUE(v->is_object());
  EXPECT_DOUBLE_EQ(v->Find("a")->number_value, 1.0);
  EXPECT_DOUBLE_EQ(v->Find("b")->number_value, -2500.0);
  EXPECT_TRUE(v->Find("c")->bool_value);
  EXPECT_TRUE(v->Find("d")->is_null());
  EXPECT_EQ(v->Find("e")->string_value, "x\n\"y\"");
  EXPECT_EQ(v->Find("missing"), nullptr);
}

TEST(JsonParserTest, NestedAndFindPath) {
  auto v = ParseJson("{\"outer\":{\"inner\":{\"leaf\":42}},\"arr\":[1,[2,3],{}]}");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  const JsonValue* leaf = v->FindPath("outer.inner.leaf");
  ASSERT_NE(leaf, nullptr);
  EXPECT_DOUBLE_EQ(leaf->number_value, 42.0);
  EXPECT_EQ(v->FindPath("outer.missing.leaf"), nullptr);
  ASSERT_TRUE(v->Find("arr")->is_array());
  EXPECT_EQ(v->Find("arr")->array.size(), 3u);
}

TEST(JsonParserTest, RejectsMalformed) {
  // The cases that matter for hand-assembled JSON: a stray comma, a missing
  // brace, duplicated keys, junk after the document.
  const char* bad[] = {
      "{\"a\":1,}",         // trailing comma
      "{\"a\":1",           // unterminated object
      "{\"a\":1,\"a\":2}",  // duplicate key
      "{\"a\":1} x",        // trailing content
      "{\"a\":01}",         // leading zero
      "[1,2,]",             // trailing comma in array
      "{\"a\":}",           // missing value
      "\"unterminated",     // unterminated string
      "nul",                // truncated literal
      "",                   // empty input
  };
  for (const char* text : bad) {
    EXPECT_FALSE(ParseJson(text).ok()) << "accepted: " << text;
  }
}

// -- fixtures ----------------------------------------------------------------

// Two disks; fs0 striped over both (so RunFragments fans out and records
// volume.fragment spans), fs1 mirrored.
SystemConfig SmallConfig() {
  SystemConfig config;
  config.disks_per_bus = {2};
  config.num_filesystems = 2;
  config.cache_bytes = 2 * kMiB;
  config.lfs_segment_blocks = 64;
  config.max_inodes = 1024;
  config.flush_policy = "ups";
  config.image_bytes = 16 * kMiB;
  VolumeSpec striped;
  striped.kind = "striped";
  striped.members = {0, 1};
  striped.stripe_unit_kb = 16;
  VolumeSpec mirror;
  mirror.kind = "mirror";
  mirror.members = {0, 1};
  config.volumes = {striped, mirror};
  return config;
}

// Writes more than the 2 MiB cache holds (syncing every 16 files so dirty
// data never outgrows the cache and block allocation never waits on the
// flush policy), then reads everything back from the start: the early files'
// blocks have been evicted by then, so the read-back pass produces real
// cache misses — traced fills that reach the volumes and drivers on the
// workload's own coroutine.
Task<Status> SmallWorkload(ClientInterface* c) {
  constexpr int kFiles = 96;
  constexpr uint64_t kBytes = 32 * 1024;  // 96 * 32 KiB = 3 MiB > cache
  OpenOptions create;
  create.create = true;
  for (int i = 0; i < kFiles; ++i) {
    const std::string path = std::string(i % 2 == 0 ? "/fs0/f" : "/fs1/f") + std::to_string(i);
    auto fd = co_await c->Open(path, create);
    PFS_CO_RETURN_IF_ERROR(fd.status());
    auto wrote = co_await c->Write(*fd, 0, kBytes, {});
    PFS_CO_RETURN_IF_ERROR(wrote.status());
    PFS_CO_RETURN_IF_ERROR(co_await c->Close(*fd));
    if (i % 16 == 15) {
      PFS_CO_RETURN_IF_ERROR(co_await c->SyncAll());
    }
  }
  PFS_CO_RETURN_IF_ERROR(co_await c->SyncAll());
  for (int i = 0; i < kFiles; ++i) {
    const std::string path = std::string(i % 2 == 0 ? "/fs0/f" : "/fs1/f") + std::to_string(i);
    auto fd = co_await c->Open(path, OpenOptions{});
    PFS_CO_RETURN_IF_ERROR(fd.status());
    auto read = co_await c->Read(*fd, 0, kBytes, {});
    PFS_CO_RETURN_IF_ERROR(read.status());
    PFS_CO_RETURN_IF_ERROR(co_await c->Close(*fd));
  }
  co_return co_await c->SyncAll();
}

Result<std::unique_ptr<System>> BuildAndRun(const SystemConfig& config) {
  PFS_ASSIGN_OR_RETURN(std::unique_ptr<System> system, SystemBuilder::Build(config));
  PFS_RETURN_IF_ERROR(system->Setup());
  Status status(ErrorCode::kAborted);
  system->scheduler()->Spawn("test.workload", [](System* sys, Status* st) -> Task<> {
    *st = co_await SmallWorkload(sys->client());
  }(system.get(), &status));
  system->RunToCompletion();
  PFS_RETURN_IF_ERROR(status);
  return system;
}

class ObsSystemTest : public ::testing::Test {
 protected:
  void SetUp() override {
    image_ = testing::TempDir() + "/pfs_obs_test.img";
    std::remove(image_.c_str());
    std::remove((image_ + ".1").c_str());
  }
  void TearDown() override {
    std::remove(image_.c_str());
    std::remove((image_ + ".1").c_str());
  }

  SystemConfig TracedConfig(BackendKind backend) {
    SystemConfig config = SmallConfig();
    config.backend = backend;
    config.image_path = image_;
    config.trace.enabled = true;
    config.trace.sample_ms = 5;
    return config;
  }

  std::string image_;
};

// -- satellite 2: every hand-assembled StatJson parses -----------------------

void ExpectAllJsonParses(System* sys) {
  for (const StatSource* source : sys->stats().sources()) {
    const std::string json = source->StatJson();
    auto parsed = ParseJson(json);
    EXPECT_TRUE(parsed.ok()) << source->stat_name() << ": " << parsed.status().ToString()
                             << "\n" << json;
  }
  auto combined = ParseJson(sys->stats().ReportJson());
  EXPECT_TRUE(combined.ok()) << combined.status().ToString();
  ASSERT_TRUE(combined->is_object());
}

TEST_F(ObsSystemTest, EveryStatSourceJsonParsesSimulated) {
  auto sys = BuildAndRun(TracedConfig(BackendKind::kSimulated));
  ASSERT_TRUE(sys.ok()) << sys.status().ToString();
  ExpectAllJsonParses(sys->get());
}

TEST_F(ObsSystemTest, EveryStatSourceJsonParsesFileBacked) {
  auto sys = BuildAndRun(TracedConfig(BackendKind::kFileBacked));
  ASSERT_TRUE(sys.ok()) << sys.status().ToString();
  ExpectAllJsonParses(sys->get());
}

// -- satellite 1: percentiles in every tier's JSON ---------------------------

TEST_F(ObsSystemTest, PercentileFieldsPresentInEveryTier) {
  auto sys = BuildAndRun(TracedConfig(BackendKind::kSimulated));
  ASSERT_TRUE(sys.ok()) << sys.status().ToString();
  System& s = **sys;

  auto driver = ParseJson(s.drivers()[0]->StatJson());
  ASSERT_TRUE(driver.ok()) << driver.status().ToString();
  for (const char* path : {"latency_ms.p50", "latency_ms.p95", "latency_ms.p99",
                           "queue_wait_ms.p50", "queue_wait_ms.p95", "queue_wait_ms.p99"}) {
    const JsonValue* v = driver->FindPath(path);
    ASSERT_NE(v, nullptr) << path;
    EXPECT_TRUE(v->is_number()) << path;
  }

  auto volume = ParseJson(s.volume(0)->StatJson());
  ASSERT_TRUE(volume.ok()) << volume.status().ToString();
  for (const char* path : {"latency_ms.mean", "latency_ms.p50", "latency_ms.p95",
                           "latency_ms.p99"}) {
    ASSERT_NE(volume->FindPath(path), nullptr) << path;
  }
  EXPECT_GT(s.volume(0)->latency().count(), 0u);

  auto cache = ParseJson(s.cache()->StatJson());
  ASSERT_TRUE(cache.ok()) << cache.status().ToString();
  for (const char* path : {"fill_ms.mean", "fill_ms.p50", "fill_ms.p95", "fill_ms.p99"}) {
    ASSERT_NE(cache->FindPath(path), nullptr) << path;
  }
}

// -- the tentpole: end-to-end spans ------------------------------------------

void ExpectFullPipelineTraced(System* sys) {
  const TraceRecorder* tracer = sys->tracer();
  ASSERT_NE(tracer, nullptr);
  const std::vector<TraceSpan> spans = tracer->Spans();
  size_t stage_spans[kTraceStageCount] = {};
  for (const TraceSpan& span : spans) {
    ++stage_spans[static_cast<size_t>(span.stage)];
  }
  for (TraceStage stage :
       {TraceStage::kClient, TraceStage::kCacheFill, TraceStage::kVolume, TraceStage::kFragment,
        TraceStage::kDriverQueue, TraceStage::kDriverIo, TraceStage::kDriverBatch}) {
    EXPECT_GT(stage_spans[static_cast<size_t>(stage)], 0u) << TraceStageName(stage);
  }

  // Every span belongs to a known client root, and time never runs backwards
  // inside a span.
  std::set<uint64_t> roots;
  for (const TraceSpan& span : spans) {
    if (span.stage == TraceStage::kClient) {
      roots.insert(span.trace_id);
    }
  }
  EXPECT_FALSE(roots.empty());
  for (const TraceSpan& span : spans) {
    EXPECT_NE(span.trace_id, 0u);
    EXPECT_TRUE(roots.count(span.trace_id)) << TraceStageName(span.stage);
    EXPECT_GE(span.end_ns, span.begin_ns);
  }

  // The export is one parseable Chrome trace_event document.
  auto doc = ParseJson(tracer->ChromeTraceJson());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  EXPECT_EQ(events->array.size(), tracer->span_count());
  for (const JsonValue& event : events->array) {
    EXPECT_EQ(event.Find("ph")->string_value, "X");
    EXPECT_GE(event.Find("dur")->number_value, 0.0);
    ASSERT_NE(event.FindPath("args.trace_id"), nullptr);
  }
}

TEST_F(ObsSystemTest, FullPipelineTracedSimulated) {
  auto sys = BuildAndRun(TracedConfig(BackendKind::kSimulated));
  ASSERT_TRUE(sys.ok()) << sys.status().ToString();
  ExpectFullPipelineTraced(sys->get());
}

TEST_F(ObsSystemTest, FullPipelineTracedFileBacked) {
  auto sys = BuildAndRun(TracedConfig(BackendKind::kFileBacked));
  ASSERT_TRUE(sys.ok()) << sys.status().ToString();
  ExpectFullPipelineTraced(sys->get());
}

TEST_F(ObsSystemTest, DisabledBuildsNoTracer) {
  SystemConfig config = SmallConfig();
  config.backend = BackendKind::kSimulated;
  auto sys = BuildAndRun(config);
  ASSERT_TRUE(sys.ok()) << sys.status().ToString();
  EXPECT_EQ((*sys)->tracer(), nullptr);
  EXPECT_EQ((*sys)->stats_sampler(), nullptr);
}

// -- trace.* scenario keys round-trip ----------------------------------------

TEST(ObsConfigTest, TraceKeysRoundTrip) {
  SystemConfig config;
  config.trace.enabled = true;
  config.trace.file = "/tmp/some trace.json";
  config.trace.sample_ms = 250;
  auto reparsed = SystemConfig::Parse(config.ToString());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(config.ToString(), reparsed->ToString());
  EXPECT_TRUE(reparsed->trace.enabled);
  EXPECT_EQ(reparsed->trace.file, config.trace.file);
  EXPECT_EQ(reparsed->trace.sample_ms, 250u);
}

TEST(ObsConfigTest, SamplesPathDerivation) {
  EXPECT_EQ(TraceSamplesPath("trace.json"), "trace-samples.json");
  EXPECT_EQ(TraceSamplesPath("/a/b.json"), "/a/b-samples.json");
  EXPECT_EQ(TraceSamplesPath("noext"), "noext-samples.json");
}

// -- recorder mechanics ------------------------------------------------------

TEST(TraceRecorderTest, KeepsEverySpanFromEveryOsThreadInOrder) {
  // The test thread and a second OS thread record at the same time; nothing
  // may be dropped or reordered.
  constexpr uint64_t kPerThread = 2000;
  TraceRecorder recorder;
  auto record = [&recorder](uint64_t tid) {
    TraceContext ctx = recorder.StartTrace();
    for (uint64_t i = 0; i < kPerThread; ++i) {
      RecordSpan(ctx, TraceStage::kClient, tid, TimePoint::FromNanos(static_cast<int64_t>(i)),
                 TimePoint::FromNanos(static_cast<int64_t>(i + 1)), i);
    }
  };
  std::thread other(record, 2);
  record(1);
  other.join();

  EXPECT_EQ(recorder.span_count(), 2 * kPerThread);
  const std::vector<TraceSpan> spans = recorder.Spans();
  ASSERT_EQ(spans.size(), 2 * kPerThread);
  uint64_t next_arg[3] = {};  // by tid
  for (const TraceSpan& span : spans) {
    ASSERT_TRUE(span.tid == 1 || span.tid == 2) << span.tid;
    EXPECT_EQ(span.arg, next_arg[span.tid]) << "tid " << span.tid;
    next_arg[span.tid] = span.arg + 1;
  }
  EXPECT_EQ(next_arg[1], kPerThread);
  EXPECT_EQ(next_arg[2], kPerThread);

  // The export carries every span, in the same order.
  auto doc = ParseJson(recorder.ChromeTraceJson());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(events->array[i].Find("tid")->number_value, static_cast<double>(spans[i].tid));
    EXPECT_EQ(events->array[i].FindPath("args.arg")->number_value,
              static_cast<double>(spans[i].arg));
  }
}

TEST(TraceRecorderTest, SpawnedThreadsInheritContext) {
  auto sched = Scheduler::CreateVirtual(1);
  TraceRecorder recorder;
  uint64_t child_saw = 0;
  sched->Spawn("test.parent", [](Scheduler* s, TraceRecorder* r, uint64_t* out) -> Task<> {
    s->current_thread()->trace = r->StartTrace();
    const uint64_t id = s->current_thread()->trace.id;
    s->SpawnTransient("test.child", [](Scheduler* s2, uint64_t* o) -> Task<> {
      const Thread* self = s2->current_thread();
      *o = self->trace.active() ? self->trace.id : 0;
      co_return;
    }(s, out));
    // Clear before exit so no span leaks from this synthetic root.
    s->current_thread()->trace = TraceContext{};
    (void)id;
    co_return;
  }(sched.get(), &recorder, &child_saw));
  sched->Run();
  EXPECT_NE(child_saw, 0u);
}

// -- StatsSampler ------------------------------------------------------------

TEST_F(ObsSystemTest, SamplerSnapshotsTimeSeries) {
  SystemConfig config = TracedConfig(BackendKind::kSimulated);
  config.trace.file = testing::TempDir() + "/pfs_obs_sampler.json";
  config.trace.sample_ms = 50;  // each streamed line renders every metric
  const std::string samples_path = TraceSamplesPath(config.trace.file);
  uint64_t run_requests = 0;
  std::string latest;
  {
    auto sys = BuildAndRun(config);
    ASSERT_TRUE(sys.ok()) << sys.status().ToString();
    ASSERT_NE((*sys)->stats_sampler(), nullptr);
    latest = (*sys)->stats_sampler()->Latest();
    run_requests = (*sys)->volume(0)->requests();
  }
  // Read back after the system is gone: its destructor syncs the tail.
  std::vector<std::string> lines;
  std::vector<JsonValue> series;
  {
    std::ifstream in(samples_path);
    ASSERT_TRUE(in.good()) << samples_path;
    for (std::string line; std::getline(in, line);) {
      auto sample = ParseJson(line);
      ASSERT_TRUE(sample.ok()) << sample.status().ToString() << "\n" << line;
      series.push_back(std::move(*sample));
      lines.push_back(std::move(line));
    }
  }
  std::remove(samples_path.c_str());
  // The virtual-clock workload spans many sampling periods; the first
  // sample is gathered at once, the rest one period apart, and the last one
  // when the run ends, at most a period after the one before.
  ASSERT_GT(series.size(), 2u);
  for (size_t i = 0; i < series.size(); ++i) {
    const JsonValue* t = series[i].Find("t_ms");
    ASSERT_NE(t, nullptr);
    if (i > 0) {
      const double step = t->number_value - series[i - 1].Find("t_ms")->number_value;
      if (i + 1 < series.size()) {
        EXPECT_NEAR(step, 50.0, 1e-3);
      } else {
        EXPECT_GE(step, 0.0);
        EXPECT_LE(step, 50.0 + 1e-3);
      }
    }
    ASSERT_NE(series[i].Find("stats"), nullptr);
    EXPECT_TRUE(series[i].Find("stats")->is_object());
    ASSERT_NE(series[i].Find("metrics"), nullptr);
    EXPECT_TRUE(series[i].Find("metrics")->is_object());
  }
  // Snapshots are cumulative: the last sample's volume request count covers
  // the whole run, not one interval. (Stat names contain dots, so chain
  // Find() instead of FindPath().)
  const JsonValue* vol = series.back().Find("stats")->Find("volume.fs0");
  ASSERT_NE(vol, nullptr);
  const JsonValue* requests = vol->Find("requests");
  ASSERT_NE(requests, nullptr);
  EXPECT_GT(requests->number_value, 0.0);
  EXPECT_EQ(requests->number_value, static_cast<double>(run_requests));
  const JsonValue* first = series.front().Find("stats")->Find("volume.fs0");
  EXPECT_GE(requests->number_value, first->Find("requests")->number_value);
  // After the run the sampler's latest snapshot is the end-of-run gather, the
  // stream's last line; the periodic gathers before it list the same
  // sources in the same order.
  ASSERT_FALSE(latest.empty());
  EXPECT_NE(lines.back().find("\"stats\":" + latest + ",\"metrics\":"), std::string::npos);
  const auto names = [](const JsonValue& sample) {
    std::vector<std::string> out;
    for (const auto& member : sample.Find("stats")->object) {
      out.push_back(member.first);
    }
    return out;
  };
  EXPECT_FALSE(names(series.back()).empty());
  for (size_t i = 0; i + 1 < series.size(); ++i) {
    EXPECT_EQ(names(series[i]), names(series.back())) << "line " << i;
  }
}

// -- cumulative reports ------------------------------------------------------

// Nothing resets: a second workload raises every count the reports read.
TEST_F(ObsSystemTest, SecondWorkloadRaisesCumulativeCounters) {
  auto sys = BuildAndRun(TracedConfig(BackendKind::kSimulated));
  ASSERT_TRUE(sys.ok()) << sys.status().ToString();
  System& s = **sys;

  Volume* volume = s.volume(0);
  QueueingDiskDriver* driver = s.drivers()[0].get();
  const uint64_t vol_requests = volume->requests();
  const uint64_t vol_latencies = volume->latency().count();
  const uint64_t drv_ops = driver->ops_completed();
  const uint64_t drv_latencies = driver->io_latency().count();
  ASSERT_GT(vol_requests, 0u);
  ASSERT_GT(vol_latencies, 0u);
  ASSERT_GT(drv_ops, 0u);
  ASSERT_GT(drv_latencies, 0u);

  Status status(ErrorCode::kAborted);
  s.scheduler()->Spawn("test.workload2", [](System* sp, Status* st) -> Task<> {
    *st = co_await SmallWorkload(sp->client());
  }(&s, &status));
  s.scheduler()->Run();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_GT(volume->requests(), vol_requests);
  EXPECT_GT(volume->latency().count(), vol_latencies);
  EXPECT_GT(driver->ops_completed(), drv_ops);
  EXPECT_GT(driver->io_latency().count(), drv_latencies);
}

}  // namespace
}  // namespace pfs
