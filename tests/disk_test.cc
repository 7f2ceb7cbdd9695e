// Unit tests for src/disk: geometry math, seek models, and the simulated
// disk mechanism (rotation, cache policies, timing structure).
#include <gtest/gtest.h>

#include <memory>

#include "bus/scsi_bus.h"
#include "core/json.h"
#include "disk/disk_model.h"
#include "disk/geometry.h"
#include "disk/seek_model.h"
#include "sched/scheduler.h"

namespace pfs {
namespace {

TEST(GeometryTest, Hp97560Capacity) {
  const DiskGeometry g = DiskParams::Hp97560().geometry;
  // 1962 * 19 * 72 * 512 = ~1.28 GiB, the HP 97560's 1.3 GB.
  EXPECT_EQ(g.TotalSectors(), 1962ull * 19 * 72);
  EXPECT_NEAR(static_cast<double>(g.TotalBytes()) / 1e9, 1.374, 0.01);
}

TEST(GeometryTest, ChsRoundTrip) {
  const DiskGeometry g{100, 4, 32, 512, 6000};
  for (uint64_t lba : {0ull, 1ull, 31ull, 32ull, 127ull, 128ull, 12799ull}) {
    const Chs chs = g.ToChs(lba);
    EXPECT_EQ(g.ToLba(chs), lba);
    EXPECT_LT(chs.cylinder, g.cylinders);
    EXPECT_LT(chs.head, g.heads);
    EXPECT_LT(chs.sector, g.sectors_per_track);
  }
}

TEST(GeometryTest, ChsLayoutOrder) {
  const DiskGeometry g{100, 4, 32, 512, 6000};
  // Sector 32 is track 2 (head 1) of cylinder 0.
  const Chs chs = g.ToChs(32);
  EXPECT_EQ(chs.cylinder, 0u);
  EXPECT_EQ(chs.head, 1u);
  EXPECT_EQ(chs.sector, 0u);
  // One full cylinder = 128 sectors.
  const Chs next_cyl = g.ToChs(128);
  EXPECT_EQ(next_cyl.cylinder, 1u);
}

TEST(GeometryTest, RotationTiming) {
  const DiskGeometry g = DiskParams::Hp97560().geometry;
  // 4002 rpm -> 14.99 ms per revolution.
  EXPECT_NEAR(g.RotationTime().ToMillisF(), 14.99, 0.01);
  EXPECT_NEAR(g.SectorTime().ToMillisF(), 14.99 / 72, 0.01);
  // Media rate ~2.46 MB/s for the HP 97560.
  EXPECT_NEAR(g.MediaRate() / 1e6, 2.46, 0.05);
}

TEST(SeekModelTest, TwoRangeCurve) {
  TwoRangeSeekModel model(DiskParams::Hp97560().seek);
  EXPECT_EQ(model.SeekTime(100, 100), Duration());
  // Short seek: 3.24 + 0.4*sqrt(1).
  EXPECT_NEAR(model.SeekTime(100, 101).ToMillisF(), 3.64, 0.01);
  // Long seek: 8.00 + 0.008*1000.
  EXPECT_NEAR(model.SeekTime(0, 1000).ToMillisF(), 16.0, 0.01);
  // Symmetric.
  EXPECT_EQ(model.SeekTime(0, 1000), model.SeekTime(1000, 0));
  // Monotone at the regime boundary.
  EXPECT_LE(model.SeekTime(0, 382).ToMillisF(), model.SeekTime(0, 383).ToMillisF() + 3.3);
}

TEST(SeekModelTest, ConstantModel) {
  ConstantSeekModel model(Duration::Millis(5));
  EXPECT_EQ(model.SeekTime(3, 3), Duration());
  EXPECT_EQ(model.SeekTime(3, 99), Duration::Millis(5));
}

struct DiskFixture {
  explicit DiskFixture(DiskParams params = DiskParams::Hp97560()) {
    sched = Scheduler::CreateVirtual(42);
    ScsiBus::Params bus_params;
    bus_params.arbitration_delay = Duration();
    bus = std::make_unique<ScsiBus>(sched.get(), "scsi0", bus_params);
    disk = std::make_unique<DiskModel>(sched.get(), "d0", params, bus.get());
    disk->Start();
  }

  // Issues one request through the disk (driver protocol inlined) and
  // returns its total service latency.
  Duration RunOne(IoOp op, uint64_t sector, uint32_t count) {
    Duration latency;
    sched->Spawn("issuer", Issue(this, op, sector, count, &latency));
    sched->Run();
    return latency;
  }

  static Task<> Issue(DiskFixture* f, IoOp op, uint64_t sector, uint32_t count,
                      Duration* latency) {
    IoRequest req(f->sched.get(), op, sector, count, {}, {});
    req.enqueue_time = f->sched->Now();
    req.dispatch_time = f->sched->Now();
    // Driver command/data-out phase.
    co_await f->bus->Acquire();
    co_await f->bus->Transfer(32 + (op == IoOp::kWrite ? count * 512ull : 0));
    f->bus->Release();
    co_await f->disk->Submit(&req);
    co_await req.done.Wait();
    *latency = f->sched->Now() - req.enqueue_time;
  }

  std::unique_ptr<Scheduler> sched;
  std::unique_ptr<ScsiBus> bus;
  std::unique_ptr<DiskModel> disk;
};

TEST(DiskModelTest, ReadHasMechanicalLatency) {
  DiskFixture f;
  const Duration latency = f.RunOne(IoOp::kRead, 72 * 19 * 500, 8);
  // Decode (2 ms) + seek + rotation + transfer + bus: must exceed the 2 ms
  // floor and stay under decode + max seek + full rotation + transfer slack.
  EXPECT_GT(latency, Duration::Millis(2));
  EXPECT_LT(latency, Duration::Millis(45));
  EXPECT_EQ(f.disk->reads(), 1u);
}

TEST(DiskModelTest, ImmediateReportedWriteCompletesFast) {
  DiskFixture f;
  const Duration latency = f.RunOne(IoOp::kWrite, 72 * 19 * 500, 8);
  // Bus (0.44 ms) + decode (2 ms): no mechanical wait before completion.
  EXPECT_LT(latency, Duration::Millis(3));
  EXPECT_EQ(f.disk->immediate_writes(), 1u);
  // The destage still happens in the background.
  f.sched->RunFor(Duration::Seconds(1));
  EXPECT_EQ(f.disk->destages(), 1u);
}

TEST(DiskModelTest, WriteThroughWhenCacheDisabled) {
  DiskParams p = DiskParams::Hp97560();
  p.immediate_report_writes = false;
  DiskFixture f(p);
  const Duration latency = f.RunOne(IoOp::kWrite, 72 * 19 * 500, 8);
  // Full mechanical path.
  EXPECT_GT(latency, Duration::Millis(5));
  EXPECT_EQ(f.disk->immediate_writes(), 0u);
  EXPECT_EQ(f.disk->destages(), 0u);
}

TEST(DiskModelTest, WriteBurstOverflowsCacheAndStalls) {
  DiskFixture f;
  // 128 KB cache = 32 * 4 KB writes; the 40th write must wait for destage.
  Duration total;
  f.sched->Spawn("burst", [](DiskFixture* fx, Duration* out) -> Task<> {
    const TimePoint start = fx->sched->Now();
    for (int i = 0; i < 40; ++i) {
      Duration lat;
      co_await DiskFixture::Issue(fx, IoOp::kWrite, 72ull * 19 * (10 + i * 3), 8, &lat);
    }
    *out = fx->sched->Now() - start;
  }(&f, &total));
  f.sched->Run();
  EXPECT_EQ(f.disk->writes(), 40u);
  // If all writes were immediate, 40 * ~2.4 ms = ~97 ms. Cache pressure must
  // push total beyond that.
  EXPECT_GT(total, Duration::Millis(120));
  EXPECT_GT(f.disk->destages(), 0u);
}

TEST(DiskModelTest, ReadAheadServesSequentialReads) {
  DiskFixture f;
  std::vector<Duration> latencies(3);
  f.sched->Spawn("seq", [](DiskFixture* fx, std::vector<Duration>* lats) -> Task<> {
    // Sequential 4 KB reads; after the first, the idle disk prefetches the
    // next 8 sectors, so the second read hits the on-board cache.
    co_await DiskFixture::Issue(fx, IoOp::kRead, 1000, 8, &(*lats)[0]);
    // Give the disk a beat to prefetch (queue empty -> read-ahead).
    co_await fx->sched->Sleep(Duration::Millis(30));
    co_await DiskFixture::Issue(fx, IoOp::kRead, 1008, 8, &(*lats)[1]);
    co_await fx->sched->Sleep(Duration::Millis(30));
    co_await DiskFixture::Issue(fx, IoOp::kRead, 1016, 8, &(*lats)[2]);
  }(&f, &latencies));
  f.sched->Run();
  EXPECT_GE(f.disk->prefetches(), 1u);
  EXPECT_GE(f.disk->cache_hit_reads(), 1u);
  // A cache-hit read costs decode + bus only: well under 3 ms.
  EXPECT_LT(latencies[1], Duration::Millis(3));
  // The first read paid the mechanical price.
  EXPECT_GT(latencies[0], Duration::Millis(3));
}

TEST(DiskModelTest, RotationalDelayBoundedByOneRevolution) {
  DiskFixture f;
  f.sched->Spawn("rnd", [](DiskFixture* fx) -> Task<> {
    Rng rng(7);
    for (int i = 0; i < 50; ++i) {
      Duration lat;
      const uint64_t sector = rng.NextBelow(fx->disk->params().geometry.TotalSectors() - 8);
      co_await DiskFixture::Issue(fx, IoOp::kRead, sector, 8, &lat);
    }
  }(&f));
  f.sched->Run();
  const Histogram& rot = f.disk->rotational_delay_ms();
  EXPECT_EQ(rot.count(), 50u);
  EXPECT_LE(rot.max(), f.disk->params().geometry.RotationTime().ToMillisF() + 0.01);
  EXPECT_GE(rot.min(), 0.0);
  // Mean rotational delay for random access ~ half a revolution (7.5 ms).
  EXPECT_NEAR(rot.mean(), 7.5, 2.5);
}

TEST(DiskModelTest, StatJsonListsActivity) {
  DiskFixture f;
  f.RunOne(IoOp::kRead, 512, 8);
  auto json = ParseJson(f.disk->StatJson());
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  EXPECT_EQ(json->Find("model")->string_value, "HP97560");
  EXPECT_EQ(json->Find("reads")->number_value, 1.0);
  EXPECT_GT(json->FindPath("service_ms.mean")->number_value, 0.0);
  EXPECT_EQ(f.disk->stat_name(), "disk.d0");
}

TEST(DiskModelTest, SyntheticDiskIsDeterministic) {
  DiskFixture f(DiskParams::SyntheticTest());
  const Duration first = f.RunOne(IoOp::kRead, 512, 8);

  DiskFixture g(DiskParams::SyntheticTest());
  const Duration second = g.RunOne(IoOp::kRead, 512, 8);
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace pfs
