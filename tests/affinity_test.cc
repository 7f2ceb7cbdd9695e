// Shard-affinity assertion tests: wrong-shard access to a shard-pinned
// component must abort with both shard ids (death tests), legitimate access —
// same shard, or cross-shard through the CallOn round trip — must pass, and
// the runtime gate must actually gate.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "cache/buffer_cache.h"
#include "cache/flush_policy.h"
#include "cache/replacement.h"
#include "client/local_client.h"
#include "sched/affinity.h"
#include "sched/scheduler.h"
#include "sched/shard.h"
#include "system/system_builder.h"
#include "volume/volume.h"

namespace pfs {

// Reaches the per-shard fd table lookup that the fd calls run on the fd's
// shard, so a test can make it from the wrong one.
class LocalClientTestPeer {
 public:
  static bool IsOpen(LocalClient* client, Fd fd) { return client->FindOpen(fd) != nullptr; }
};

namespace {

#ifdef PFS_ENABLE_AFFINITY_CHECKS

constexpr uint32_t kSector = 512;

// In-memory BlockDevice completing inline; the tests only care which shard
// the call arrives on, not the I/O underneath.
class MemDevice final : public BlockDevice {
 public:
  explicit MemDevice(uint64_t nsectors) : data_(nsectors * kSector, std::byte{0}) {}

  Task<Status> Read(uint64_t sector, uint32_t count, std::span<std::byte> out) override {
    if (!out.empty()) {
      std::memcpy(out.data(), data_.data() + sector * kSector, count * kSector);
    }
    co_return OkStatus();
  }

  Task<Status> Write(uint64_t sector, uint32_t count,
                     std::span<const std::byte> in) override {
    if (!in.empty()) {
      std::memcpy(data_.data() + sector * kSector, in.data(), count * kSector);
    }
    co_return OkStatus();
  }

  uint64_t total_sectors() const override { return data_.size() / kSector; }
  uint32_t sector_bytes() const override { return kSector; }
  size_t QueueDepthHint() const override { return 0; }

 private:
  std::vector<std::byte> data_;
};

std::unique_ptr<BufferCache> MakeCache(Scheduler* sched, MetricRegistry* metrics) {
  BufferCache::Config config;
  config.block_size = 4096;
  config.capacity_bytes = 8 * 4096;
  return std::make_unique<BufferCache>(sched, metrics, config,
                                       std::make_unique<LruReplacement>(),
                                       std::make_unique<UpsPolicy>());
}

TEST(AffinityDeathTest, WrongShardVolumeReadAborts) {
  SetAffinityChecksForTesting(true);
  std::vector<std::byte> out(kSector);
  EXPECT_DEATH(
      {
        SchedulerGroup group(2, /*virtual_clock=*/true, 1);
        MetricRegistry metrics(group.size(), "pfs");
        MemDevice disk(64);
        SingleDiskVolume vol(group.shard(0), &metrics, "v",
                             {&disk, /*start_sector=*/0, /*nsectors=*/64});
        group.shard(1)->Spawn("wrong-shard-read",
                              [](Volume* v, std::span<std::byte> buf) -> Task<> {
                                (void)co_await v->Read(0, 1, buf);
                              }(&vol, out));
        group.Run();
      },
      "pinned to shard 0 but was entered from shard 1");
}

TEST(AffinityDeathTest, WrongShardCacheAccessAborts) {
  SetAffinityChecksForTesting(true);
  EXPECT_DEATH(
      {
        SchedulerGroup group(2, /*virtual_clock=*/true, 1);
        MetricRegistry metrics(group.size(), "pfs");
        auto cache = MakeCache(group.shard(0), &metrics);
        group.shard(1)->Spawn("wrong-shard-get",
                              [](BufferCache* c) -> Task<> {
                                (void)co_await c->GetBlock(BlockId{1, 1, 0},
                                                           GetMode::kRead);
                              }(cache.get()));
        group.Run();
      },
      "pinned to shard 0 but was entered from shard 1");
}

TEST(AffinityDeathTest, WrongShardFdTableAccessAborts) {
  // fs1 lives on shard 1, so the fd that shard 0 opens there names shard
  // 1's table. The open hops to shard 1 and passes; looking the fd up from
  // shard 0 touches that table from the wrong loop.
  SetAffinityChecksForTesting(true);
  EXPECT_DEATH(
      {
        SystemConfig config;
        config.disks_per_bus = {2};
        config.num_filesystems = 2;
        config.shards = 2;
        auto system = SystemBuilder::Build(config);
        PFS_CHECK(system.ok() && (*system)->Setup().ok());
        (*system)->scheduler()->Spawn("wrong-shard-fd", [](LocalClient* c) -> Task<> {
          OpenOptions create;
          create.create = true;
          auto fd = co_await c->Open("/fs1/f", create);
          PFS_CHECK(fd.ok());
          (void)LocalClientTestPeer::IsOpen(c, *fd);
        }((*system)->client()));
        (*system)->RunToCompletion();
      },
      "\"client fd table\" is pinned to shard 1 but was entered from shard 0");
}

TEST(AffinityTest, CallOnRoundTripPasses) {
  SetAffinityChecksForTesting(true);
  SchedulerGroup group(2, /*virtual_clock=*/true, 1);
  MetricRegistry metrics(group.size(), "pfs");
  MemDevice disk(64);
  // Volume pinned to shard 1; shard 0 reaches it the sanctioned way.
  SingleDiskVolume vol(group.shard(1), &metrics, "v", {&disk, 0, 64});
  std::vector<std::byte> out(kSector);
  Status status(ErrorCode::kAborted);
  group.shard(0)->Spawn(
      "caller",
      [](Scheduler* home, Scheduler* target, Volume* v, std::span<std::byte> buf,
         Status* result) -> Task<> {
        auto body = [v, buf]() { return v->Read(0, 1, buf); };
        *result = co_await CallOn<Status>(home, target, body);
      }(group.shard(0), group.shard(1), &vol, out, &status));
  group.Run();
  EXPECT_TRUE(status.ok());
}

TEST(AffinityTest, SameShardAccessPasses) {
  SetAffinityChecksForTesting(true);
  SchedulerGroup group(2, /*virtual_clock=*/true, 1);
  MetricRegistry metrics(group.size(), "pfs");
  MemDevice disk(64);
  SingleDiskVolume vol(group.shard(0), &metrics, "v", {&disk, 0, 64});
  std::vector<std::byte> out(kSector);
  Status status(ErrorCode::kAborted);
  group.shard(0)->Spawn("same-shard",
                        [](Volume* v, std::span<std::byte> buf, Status* result) -> Task<> {
                          *result = co_await v->Read(0, 1, buf);
                        }(&vol, out, &status));
  group.Run();
  EXPECT_TRUE(status.ok());
}

TEST(AffinityTest, DisabledChecksTolerateWrongShardAccess) {
  // The runtime gate must actually gate: with checks off, the same
  // wrong-shard access that aborts above completes. (Deterministic lockstep
  // runs every shard on this one OS thread, so executing the logical race is
  // physically safe here.)
  SetAffinityChecksForTesting(false);
  SchedulerGroup group(2, /*virtual_clock=*/true, 1);
  MetricRegistry metrics(group.size(), "pfs");
  MemDevice disk(64);
  SingleDiskVolume vol(group.shard(0), &metrics, "v", {&disk, 0, 64});
  std::vector<std::byte> out(kSector);
  Status status(ErrorCode::kAborted);
  group.shard(1)->Spawn("tolerated",
                        [](Volume* v, std::span<std::byte> buf, Status* result) -> Task<> {
                          *result = co_await v->Read(0, 1, buf);
                        }(&vol, out, &status));
  group.Run();
  EXPECT_TRUE(status.ok());
  SetAffinityChecksForTesting(true);
}

TEST(AffinityTest, CurrentShardTracksTheRunningLoop) {
  SchedulerGroup group(2, /*virtual_clock=*/true, 1);
  EXPECT_EQ(SchedulerGroup::CurrentShard(), -1);  // not on any loop
  int seen = -2;
  group.shard(1)->Spawn("probe", [](int* out) -> Task<> {
    *out = SchedulerGroup::CurrentShard();
    co_return;
  }(&seen));
  group.Run();
  EXPECT_EQ(seen, 1);
  EXPECT_EQ(SchedulerGroup::CurrentShard(), -1);
}

#else

TEST(AffinityTest, ChecksCompiledOut) {
  // Release builds compile PFS_ASSERT_SHARD to nothing; nothing to test.
  SUCCEED();
}

#endif  // PFS_ENABLE_AFFINITY_CHECKS

}  // namespace
}  // namespace pfs
