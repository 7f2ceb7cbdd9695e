// Pins the allocation counts of the hot paths: after warm-up, waiting on
// and signalling an Event or a Notification, a cache hit or an overwrite
// through LocalClient, a cross-shard CallOn round trip, a cache miss that
// evicts, and a file-backed round of read misses, overwrites and an fsync
// through LFS allocate nothing. It also bounds the bytes that creating a
// small file allocates. This binary replaces the global operator new and
// delete (scalar and array) with versions that count calls and bytes; the
// counts cover every thread, the I/O pool's included.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "cache/buffer_cache.h"
#include "cache/flush_policy.h"
#include "cache/replacement.h"
#include "client/local_client.h"
#include "sched/event.h"
#include "sched/scheduler.h"
#include "sched/shard.h"
#include "sched/task.h"
#include "system/system_builder.h"

namespace {

std::atomic<int64_t> g_allocations{0};
std::atomic<int64_t> g_allocated_bytes{0};

// Out of line, so that no caller sees memory from `operator new` reach
// `free` (or `malloc`'s reach `operator delete`) and warns of a mismatch.
[[gnu::noinline]] void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(static_cast<int64_t>(size), std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void CountedFree(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }

namespace pfs {
namespace {

constexpr int kRounds = 200;

int64_t Allocations() { return g_allocations.load(std::memory_order_relaxed); }
int64_t AllocatedBytes() { return g_allocated_bytes.load(std::memory_order_relaxed); }

// Counts the allocations `rounds` calls of `round` make after `warm_up`
// calls (Thread records, frame-pool lists and vector capacity).
template <typename Round>
Task<> CountAfterWarmUp(Round round, int rounds, int64_t* allocations, int warm_up = 1) {
  for (int i = 0; i < warm_up; ++i) {
    co_await round();
  }
  const int64_t before = Allocations();
  for (int i = 0; i < rounds; ++i) {
    co_await round();
  }
  *allocations = Allocations() - before;
}

// Under AddressSanitizer the frame pool compiles out (sched/task.h), so
// every co_await allocates.
#if defined(__SANITIZE_ADDRESS__)
#define PFS_SKIP_WITHOUT_FRAME_POOL() GTEST_SKIP() << "no frame pool under ASan"
#else
#define PFS_SKIP_WITHOUT_FRAME_POOL()
#endif

std::atomic<std::byte*> g_sink{nullptr};

TEST(AllocTest, TheCounterSeesEachOperatorNew) {
  const int64_t before = Allocations();
  const int64_t bytes_before = AllocatedBytes();
  auto* block = new std::byte[64];
  g_sink.store(block);  // keeps the allocation from being elided
  delete[] g_sink.exchange(nullptr);
  EXPECT_EQ(Allocations() - before, 1);
  EXPECT_EQ(AllocatedBytes() - bytes_before, 64);
}

Task<> WaitThenNotify(Event* e, Notification* n) {
  co_await e->Wait();
  n->Notify();
}

TEST(AllocTest, EventsAndNotificationsAllocateNothing) {
  PFS_SKIP_WITHOUT_FRAME_POOL();
  auto sched = Scheduler::CreateVirtual();
  int64_t allocations = -1;
  auto round = [s = sched.get()]() -> Task<> {
    Event e(s);
    Notification n(s);
    s->SpawnTransient("waiter", WaitThenNotify(&e, &n));
    while (e.waiter_count() == 0) {
      co_await s->Yield();
    }
    e.Signal();
    co_await n.Wait();
  };
  sched->Spawn("rounds", CountAfterWarmUp(round, kRounds, &allocations));
  sched->Run();
  EXPECT_EQ(allocations, 0);
}

// Creates /fs0/hot with four blocks, so they sit in the cache.
Task<> CreateHotFile(ClientInterface* c, Fd* fd, Status* status) {
  OpenOptions create;
  create.create = true;
  auto opened = co_await c->Open("/fs0/hot", create);
  *status = opened.status();
  if (opened.ok()) {
    *fd = *opened;
    *status = (co_await c->Write(*fd, 0, 4 * 4096, {})).status();
  }
}

TEST(AllocTest, CacheHitsAndOverwritesThroughLocalClientAllocateNothing) {
  PFS_SKIP_WITHOUT_FRAME_POOL();
  SystemConfig config;
  config.flush_policy = "ups";  // keeps overwritten blocks dirty in memory
  config.cache_bytes = 1 * kMiB;
  auto system = SystemBuilder::Build(config);
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  ASSERT_TRUE((*system)->Setup().ok());
  ClientInterface* client = (*system)->client();
  Fd fd = 0;
  Status created(ErrorCode::kAborted);
  (*system)->scheduler()->Spawn("create", CreateHotFile(client, &fd, &created));
  (*system)->RunToCompletion();
  ASSERT_TRUE(created.ok()) << created.ToString();

  std::vector<std::byte> buffer(4096);
  int64_t offset = 0;
  int64_t allocations = -1;
  auto round = [client, fd, &buffer, &offset]() -> Task<> {
    const uint64_t at = static_cast<uint64_t>(offset++ % 4) * 4096;
    PFS_CHECK((co_await client->Read(fd, at, buffer.size(), buffer)).ok());
    PFS_CHECK((co_await client->Write(fd, at, buffer.size(), buffer)).ok());
  };
  (*system)->scheduler()->Spawn("rounds", CountAfterWarmUp(round, kRounds, &allocations));
  (*system)->RunToCompletion();
  EXPECT_EQ(allocations, 0);
}

TEST(AllocTest, LockstepCallOnRoundTripAllocatesNothing) {
  PFS_SKIP_WITHOUT_FRAME_POOL();
  SchedulerGroup group(2, /*virtual_clock=*/true, 7);
  Scheduler* home = group.shard(0);
  Scheduler* target = group.shard(1);
  int64_t allocations = -1;
  auto round = [home, target]() -> Task<> {
    auto body = [target]() -> Task<int> {
      co_await target->Yield();
      co_return 1;
    };
    PFS_CHECK(co_await CallOn<int>(home, target, body) == 1);
  };
  home->Spawn("rounds", CountAfterWarmUp(round, kRounds, &allocations));
  group.Run();
  EXPECT_EQ(allocations, 0);
}

// Fills without I/O: every miss costs only the cache's own bookkeeping.
class InstantHandler final : public BlockIoHandler {
 public:
  Task<Status> FillBlock(const BlockId&, CacheBlock*) override { co_return OkStatus(); }
  Task<Status> WriteBlocks(uint64_t, std::span<CacheBlock* const>) override {
    co_return OkStatus();
  }
};

TEST(AllocTest, CacheMissesThatEvictAllocateNothing) {
  PFS_SKIP_WITHOUT_FRAME_POOL();
  auto sched = Scheduler::CreateVirtual();
  MetricRegistry metrics(1, "pfs");
  BufferCache::Config config;
  config.capacity_bytes = 8 * config.block_size;
  BufferCache cache(sched.get(), &metrics, config, std::make_unique<LruReplacement>(),
                    std::make_unique<UpsPolicy>());
  InstantHandler handler;
  cache.RegisterHandler(1, &handler);
  cache.Start();
  // One file's 16 blocks through an 8-block cache: every access misses and
  // evicts, and the file keeps blocks cached throughout.
  uint64_t next = 0;
  int64_t allocations = -1;
  auto round = [&cache, &next]() -> Task<> {
    for (int i = 0; i < 16; ++i) {
      auto block = co_await cache.GetBlock(BlockId{1, 5, next++ % 16}, GetMode::kRead);
      PFS_CHECK(block.ok());
      cache.Release(*block);
    }
  };
  sched->Spawn("rounds", CountAfterWarmUp(round, kRounds, &allocations));
  sched->Run();
  EXPECT_EQ(allocations, 0);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.evictions(), cache.misses() - 8);
}

// Creates /fs0/cold with `blocks` blocks, syncing every eight so the small
// cache never has to wait for its flusher.
Task<> CreateColdFile(ClientInterface* c, uint64_t blocks, Fd* fd, Status* status) {
  OpenOptions create;
  create.create = true;
  auto opened = co_await c->Open("/fs0/cold", create);
  *status = opened.status();
  if (!opened.ok()) {
    co_return;
  }
  *fd = *opened;
  std::vector<std::byte> data(8 * 4096, std::byte{0x5a});
  for (uint64_t b = 0; b < blocks && status->ok(); b += 8) {
    *status = (co_await c->Write(*fd, b * 4096, data.size(), data)).status();
    if (status->ok()) {
      *status = co_await c->Fsync(*fd);
    }
  }
}

// cold-mix in miniature: read misses that evict, 4 KiB overwrites and an
// fsync, through LFS on a two-disk stripe of file-backed images, so every
// round trips through the I/O pool. Each round appends three log blocks (a
// data block, a block-map chunk, the inode); the 60 rounds stay inside one
// 512-block segment, since a segment's summary is sized once, when the log
// first moves into it.
TEST(AllocTest, FileBackedMissesOverwritesAndFsyncAllocateNothing) {
  PFS_SKIP_WITHOUT_FRAME_POOL();
  const std::string image = testing::TempDir() + "/pfs_alloc_test.img";
  SystemConfig config = SystemConfig::OnlineDefaults();
  config.image_path = image;
  config.image_bytes = 24 * kMiB;
  config.disks_per_bus = {2};
  VolumeSpec stripe;
  stripe.kind = "striped";
  stripe.members = {0, 1};
  stripe.stripe_unit_kb = 64;
  config.volumes = {stripe};
  config.lfs_segment_blocks = 512;
  config.cache_bytes = 16 * 4096;
  auto system = SystemBuilder::Build(config);
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  ASSERT_TRUE((*system)->Setup().ok());
  ClientInterface* client = (*system)->client();
  constexpr uint64_t kBlocks = 64;  // four times the cache
  Fd fd = 0;
  Status created(ErrorCode::kAborted);
  (*system)->scheduler()->Spawn("create", CreateColdFile(client, kBlocks, &fd, &created));
  (*system)->RunToCompletion();
  ASSERT_TRUE(created.ok()) << created.ToString();

  std::vector<std::byte> buffer(4096);
  uint64_t next = 0;
  int64_t allocations = -1;
  auto round = [client, fd, &buffer, &next]() -> Task<> {
    for (int i = 0; i < 4; ++i) {
      const uint64_t at = (next++ * 17 % kBlocks) * 4096;
      PFS_CHECK((co_await client->Read(fd, at, buffer.size(), buffer)).ok());
    }
    const uint64_t overwrite_at = (next % kBlocks) * 4096;
    PFS_CHECK((co_await client->Write(fd, overwrite_at, buffer.size(), buffer)).ok());
    PFS_CHECK((co_await client->Fsync(fd)).ok());
  };
  // Ten rounds of warm-up, not one: the frame pool reaches the depth a round
  // can need (the members' batches overlap in some rounds, not in others)
  // only after several.
  (*system)->scheduler()->Spawn("rounds", CountAfterWarmUp(round, 50, &allocations, 10));
  (*system)->RunToCompletion();
  EXPECT_EQ(allocations, 0);
  EXPECT_GT((*system)->cache()->evictions(), 0u);
  system->reset();
  std::remove(image.c_str());
  std::remove((image + ".1").c_str());
}

// Creates `path`, writes four blocks, fsyncs them (so the layout maps them
// in the file's block map) and closes it.
Task<> CreateFourBlockFile(ClientInterface* c, const std::string& path, Status* status) {
  OpenOptions create;
  create.create = true;
  auto opened = co_await c->Open(path, create);
  *status = opened.status();
  if (!opened.ok()) {
    co_return;
  }
  *status = (co_await c->Write(*opened, 0, 4 * 4096, {})).status();
  if (status->ok()) {
    *status = co_await c->Fsync(*opened);
  }
  if (status->ok()) {
    *status = co_await c->Close(*opened);
  }
}

// Creates one file to warm up (frame pools, first-use capacity), then
// measures the bytes that creating a second one allocates.
Task<> MeasureSecondFile(ClientInterface* c, Status* status, int64_t* bytes) {
  const std::string warm = "/fs0/warm";
  co_await CreateFourBlockFile(c, warm, status);
  if (!status->ok()) {
    co_return;
  }
  const std::string measured = "/fs0/measured";
  const int64_t before = AllocatedBytes();
  co_await CreateFourBlockFile(c, measured, status);
  *bytes = AllocatedBytes() - before;
}

// A small file's block map holds only its mapped prefix, 4 slots, so the
// whole create, write, fsync and close of a four-block file on a simulated
// LFS allocates 719 bytes (RelWithDebInfo, GCC 12). The bound is about
// twice that, and far below the 4,096 bytes one full-width chunk takes.
TEST(AllocTest, CreatingASmallFileAllocatesLittle) {
  PFS_SKIP_WITHOUT_FRAME_POOL();
  SystemConfig config;
  auto system = SystemBuilder::Build(config);
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  ASSERT_TRUE((*system)->Setup().ok());
  Status status(ErrorCode::kAborted);
  int64_t bytes = -1;
  (*system)->scheduler()->Spawn("create",
                                MeasureSecondFile((*system)->client(), &status, &bytes));
  (*system)->RunToCompletion();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_LT(bytes, 1536);
}

}  // namespace
}  // namespace pfs
