// Unit tests for src/cache: buffer cache mechanics, replacement policies,
// and the flush (persistency) policies the paper experiments with.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "cache/buffer_cache.h"
#include "cache/data_mover.h"
#include "cache/flush_policy.h"
#include "cache/replacement.h"
#include "core/random.h"
#include "sched/scheduler.h"

namespace pfs {
namespace {

// Storage stand-in: charges a fixed latency per operation and records write
// traffic so tests can observe what reached "disk".
class FakeHandler : public BlockIoHandler {
 public:
  explicit FakeHandler(Scheduler* sched) : sched_(sched) {}

  Task<Status> FillBlock(const BlockId& id, CacheBlock* block) override {
    (void)block;
    ++fills;
    filled.push_back(id);
    co_await sched_->Sleep(Duration::Millis(1));
    co_return OkStatus();
  }

  Task<Status> WriteBlocks(uint64_t ino, std::span<CacheBlock* const> blocks) override {
    ++write_calls;
    blocks_written += blocks.size();
    for (const CacheBlock* b : blocks) {
      written.push_back(b->id);
      (void)ino;
    }
    co_await sched_->Sleep(Duration::Millis(2));
    co_return OkStatus();
  }

  int fills = 0;
  int write_calls = 0;
  size_t blocks_written = 0;
  std::vector<BlockId> filled;
  std::vector<BlockId> written;

 private:
  Scheduler* sched_;
};

struct CacheFixture {
  explicit CacheFixture(BufferCache::Config config = DefaultConfig(),
                        std::unique_ptr<ReplacementPolicy> repl = nullptr,
                        std::unique_ptr<FlushPolicy> flush = nullptr) {
    sched = Scheduler::CreateVirtual(7);
    handler = std::make_unique<FakeHandler>(sched.get());
    if (repl == nullptr) {
      repl = std::make_unique<LruReplacement>();
    }
    if (flush == nullptr) {
      flush = std::make_unique<UpsPolicy>();
    }
    cache = std::make_unique<BufferCache>(sched.get(), config, std::move(repl),
                                          std::move(flush));
    cache->RegisterHandler(1, handler.get());
    cache->Start();
  }

  static BufferCache::Config DefaultConfig() {
    BufferCache::Config c;
    c.block_size = 4096;
    c.capacity_bytes = 8 * 4096;  // 8 blocks: small enough to force eviction
    return c;
  }

  static BlockId Id(uint64_t ino, uint64_t blk) { return BlockId{1, ino, blk}; }

  std::unique_ptr<Scheduler> sched;
  std::unique_ptr<FakeHandler> handler;
  std::unique_ptr<BufferCache> cache;
};

Task<> TouchBlock(BufferCache* cache, BlockId id, GetMode mode, bool dirty, Status* out) {
  auto r = co_await cache->GetBlock(id, mode);
  if (!r.ok()) {
    *out = r.status();
    co_return;
  }
  CacheBlock* b = *r;
  if (dirty) {
    const Status s = co_await cache->MarkDirty(b);
    if (!s.ok()) {
      cache->Release(b);
      *out = s;
      co_return;
    }
  }
  cache->Release(b);
  *out = OkStatus();
}

TEST(BufferCacheTest, MissFillsThenHits) {
  CacheFixture f;
  Status s1;
  Status s2;
  f.sched->Spawn("t", [](CacheFixture* fx, Status* a, Status* b) -> Task<> {
    co_await TouchBlock(fx->cache.get(), CacheFixture::Id(10, 0), GetMode::kRead, false, a);
    co_await TouchBlock(fx->cache.get(), CacheFixture::Id(10, 0), GetMode::kRead, false, b);
  }(&f, &s1, &s2));
  f.sched->Run();
  EXPECT_TRUE(s1.ok());
  EXPECT_TRUE(s2.ok());
  EXPECT_EQ(f.handler->fills, 1);
  EXPECT_EQ(f.cache->hits(), 1u);
  EXPECT_EQ(f.cache->misses(), 1u);
}

TEST(BufferCacheTest, OverwriteModeSkipsFill) {
  CacheFixture f;
  Status s;
  f.sched->Spawn("t", [](CacheFixture* fx, Status* out) -> Task<> {
    co_await TouchBlock(fx->cache.get(), CacheFixture::Id(10, 0), GetMode::kOverwrite, true,
                        out);
  }(&f, &s));
  f.sched->Run();
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(f.handler->fills, 0);
  EXPECT_EQ(f.cache->dirty_count(), 1u);
}

TEST(BufferCacheTest, ConcurrentMissesShareOneFill) {
  CacheFixture f;
  std::vector<Status> statuses(4);
  for (int i = 0; i < 4; ++i) {
    f.sched->Spawn("t", [](CacheFixture* fx, Status* out) -> Task<> {
      co_await TouchBlock(fx->cache.get(), CacheFixture::Id(10, 0), GetMode::kRead, false, out);
    }(&f, &statuses[i]));
  }
  f.sched->Run();
  for (const auto& s : statuses) {
    EXPECT_TRUE(s.ok());
  }
  EXPECT_EQ(f.handler->fills, 1);
}

TEST(BufferCacheTest, LruEvictsOldestClean) {
  CacheFixture f;
  Status s;
  f.sched->Spawn("t", [](CacheFixture* fx, Status* out) -> Task<> {
    // Fill all 8 slots with clean blocks, then touch block 0 to refresh it,
    // then bring in a 9th: the victim must be block 1 (the LRU).
    for (uint64_t i = 0; i < 8; ++i) {
      co_await TouchBlock(fx->cache.get(), CacheFixture::Id(1, i), GetMode::kRead, false, out);
    }
    co_await TouchBlock(fx->cache.get(), CacheFixture::Id(1, 0), GetMode::kRead, false, out);
    co_await TouchBlock(fx->cache.get(), CacheFixture::Id(2, 0), GetMode::kRead, false, out);
    // Re-access 0: must still be cached (refreshed). Re-access 1: refetched.
    const int fills_before = fx->handler->fills;
    co_await TouchBlock(fx->cache.get(), CacheFixture::Id(1, 0), GetMode::kRead, false, out);
    PFS_CHECK(fx->handler->fills == fills_before);
    co_await TouchBlock(fx->cache.get(), CacheFixture::Id(1, 1), GetMode::kRead, false, out);
    PFS_CHECK(fx->handler->fills == fills_before + 1);
  }(&f, &s));
  f.sched->Run();
  EXPECT_TRUE(s.ok());
  EXPECT_GE(f.cache->evictions(), 1u);
}

TEST(BufferCacheTest, DirtyBlocksNotEvictedWithoutFlush) {
  CacheFixture f;
  Status s;
  f.sched->Spawn("t", [](CacheFixture* fx, Status* out) -> Task<> {
    // Dirty all 8 blocks, then request a 9th; the UPS policy must flush the
    // oldest dirty block to make space.
    for (uint64_t i = 0; i < 8; ++i) {
      co_await TouchBlock(fx->cache.get(), CacheFixture::Id(1, i), GetMode::kOverwrite, true,
                          out);
    }
    PFS_CHECK(fx->handler->write_calls == 0);  // UPS: nothing written yet
    co_await TouchBlock(fx->cache.get(), CacheFixture::Id(2, 0), GetMode::kRead, false, out);
  }(&f, &s));
  f.sched->Run();
  EXPECT_TRUE(s.ok());
  EXPECT_GE(f.handler->write_calls, 1);
  EXPECT_GE(f.cache->blocks_flushed(), 1u);
}

TEST(BufferCacheTest, FlushFileGroupsAllDirtyBlocks) {
  CacheFixture f;
  Status s;
  f.sched->Spawn("t", [](CacheFixture* fx, Status* out) -> Task<> {
    for (uint64_t i = 0; i < 5; ++i) {
      co_await TouchBlock(fx->cache.get(), CacheFixture::Id(7, i), GetMode::kOverwrite, true,
                          out);
    }
    const Status fs = co_await fx->cache->FlushFile(1, 7);
    PFS_CHECK(fs.ok());
  }(&f, &s));
  f.sched->Run();
  EXPECT_TRUE(s.ok());
  // All five blocks in a single WriteBlocks call, sorted by block number.
  EXPECT_EQ(f.handler->write_calls, 1);
  EXPECT_EQ(f.handler->blocks_written, 5u);
  for (size_t i = 1; i < f.handler->written.size(); ++i) {
    EXPECT_LT(f.handler->written[i - 1].block_no, f.handler->written[i].block_no);
  }
  EXPECT_EQ(f.cache->dirty_count(), 0u);
}

TEST(BufferCacheTest, InvalidateAbsorbsDirtyData) {
  CacheFixture f;
  Status s;
  f.sched->Spawn("t", [](CacheFixture* fx, Status* out) -> Task<> {
    for (uint64_t i = 0; i < 4; ++i) {
      co_await TouchBlock(fx->cache.get(), CacheFixture::Id(9, i), GetMode::kOverwrite, true,
                          out);
    }
    // Delete the file: its dirty blocks die in memory, no disk writes.
    fx->cache->InvalidateFile(1, 9);
  }(&f, &s));
  f.sched->Run();
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(f.handler->write_calls, 0);
  EXPECT_EQ(f.cache->absorbed_dirty_blocks(), 4u);
  EXPECT_EQ(f.cache->dirty_count(), 0u);
  EXPECT_EQ(f.cache->free_count(), f.cache->total_blocks());
}

TEST(BufferCacheTest, TruncateInvalidatesTail) {
  CacheFixture f;
  Status s;
  f.sched->Spawn("t", [](CacheFixture* fx, Status* out) -> Task<> {
    for (uint64_t i = 0; i < 6; ++i) {
      co_await TouchBlock(fx->cache.get(), CacheFixture::Id(9, i), GetMode::kOverwrite, true,
                          out);
    }
    fx->cache->InvalidateFile(1, 9, /*from_block=*/3);
  }(&f, &s));
  f.sched->Run();
  EXPECT_EQ(f.cache->dirty_count(), 3u);
  EXPECT_EQ(f.cache->absorbed_dirty_blocks(), 3u);
}

TEST(BufferCacheTest, RedirtyDuringFlushStaysDirty) {
  CacheFixture f;
  Status s;
  f.sched->Spawn("t", [](CacheFixture* fx, Status* out) -> Task<> {
    co_await TouchBlock(fx->cache.get(), CacheFixture::Id(3, 0), GetMode::kOverwrite, true,
                        out);
    // Start the flush but do not wait for it; re-dirty while the write is in
    // flight (handler sleeps 2 ms). The block must be unpinned when the
    // flush starts — pinned blocks are never flushed.
    Scheduler* sched = fx->cache->scheduler();
    sched->Spawn("flusher", [](BufferCache* c) -> Task<> {
      (void)co_await c->FlushOldest(false);
    }(fx->cache.get()));
    co_await sched->Sleep(Duration::Millis(1));  // flush now in flight
    CacheBlock* block = *(co_await fx->cache->GetBlock(CacheFixture::Id(3, 0), GetMode::kRead));
    const Status ms = co_await fx->cache->MarkDirty(block);
    PFS_CHECK(ms.ok());
    fx->cache->Release(block);
  }(&f, &s));
  f.sched->Run();
  // The write completed but the block saw a newer version: still dirty.
  EXPECT_EQ(f.handler->write_calls, 1);
  EXPECT_EQ(f.cache->dirty_count(), 1u);
}

TEST(BufferCacheTest, SyncAllDrains) {
  CacheFixture f;
  Status s;
  f.sched->Spawn("t", [](CacheFixture* fx, Status* out) -> Task<> {
    for (uint64_t ino = 1; ino <= 3; ++ino) {
      for (uint64_t b = 0; b < 2; ++b) {
        co_await TouchBlock(fx->cache.get(), CacheFixture::Id(ino, b), GetMode::kOverwrite,
                            true, out);
      }
    }
    const Status ss = co_await fx->cache->SyncAll();
    PFS_CHECK(ss.ok());
  }(&f, &s));
  f.sched->Run();
  EXPECT_EQ(f.cache->dirty_count(), 0u);
  EXPECT_EQ(f.handler->blocks_written, 6u);
}

TEST(BufferCacheTest, OutOfOrderRedirtiedBlocksAllCleanAfterOneFlushFile) {
  CacheFixture f;
  Status s;
  f.sched->Spawn("t", [](CacheFixture* fx, Status* out) -> Task<> {
    // The dirty list holds blocks in first-dirtied order (3, 1, 2, 0), which
    // is not block order, and blocks 3 and 2 are dirtied a second time, so
    // their dirty versions differ from the others'.
    static constexpr uint64_t kDirtyOrder[] = {3, 1, 2, 0, 3, 2};
    for (uint64_t b : kDirtyOrder) {
      co_await TouchBlock(fx->cache.get(), CacheFixture::Id(7, b), GetMode::kOverwrite,
                          true, out);
    }
    *out = co_await fx->cache->FlushFile(1, 7);
  }(&f, &s));
  f.sched->Run();
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(f.handler->write_calls, 1);
  EXPECT_EQ(f.cache->blocks_flushed(), 4u);
  EXPECT_EQ(f.cache->dirty_count(), 0u);
}

TEST(BufferCacheTest, SyncAllReturnsAfterRandomOverwrites) {
  CacheFixture f;
  Status s;
  bool synced = false;
  f.sched->Spawn("t", [](CacheFixture* fx, Status* out, bool* done) -> Task<> {
    // 3 files x 6 blocks through an 8-block cache: evictions flush and
    // recycle frames, so dirty versions vary block to block.
    Rng rng(11);
    for (int i = 0; i < 200; ++i) {
      const uint64_t ino = 1 + rng.NextBelow(3);
      const uint64_t blk = rng.NextBelow(6);
      const BlockId id = CacheFixture::Id(ino, blk);
      co_await TouchBlock(fx->cache.get(), id, GetMode::kOverwrite, true, out);
      if (!out->ok()) {
        co_return;
      }
    }
    *out = co_await fx->cache->SyncAll();
    *done = true;
  }(&f, &s, &synced));
  // Bounded in virtual time: a SyncAll that keeps rewriting never returns.
  f.sched->RunFor(Duration::Seconds(60));
  EXPECT_TRUE(synced);
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(f.cache->dirty_count(), 0u);
}

TEST(FlushPolicyTest, WriteDelayFlushesAfterMaxAge) {
  WriteDelayPolicy::Options opts;
  opts.max_age = Duration::Seconds(30);
  opts.scan_interval = Duration::Seconds(5);
  CacheFixture f(CacheFixture::DefaultConfig(), nullptr,
                 std::make_unique<WriteDelayPolicy>(opts));
  Status s;
  f.sched->Spawn("t", [](CacheFixture* fx, Status* out) -> Task<> {
    co_await TouchBlock(fx->cache.get(), CacheFixture::Id(1, 0), GetMode::kOverwrite, true,
                        out);
  }(&f, &s));
  f.sched->RunFor(Duration::Seconds(20));
  EXPECT_EQ(f.handler->write_calls, 0);  // younger than 30 s
  f.sched->RunFor(Duration::Seconds(20));
  EXPECT_EQ(f.handler->write_calls, 1);  // aged out and flushed
  EXPECT_EQ(f.cache->dirty_count(), 0u);
}

TEST(FlushPolicyTest, UpsKeepsDirtyDataIndefinitely) {
  CacheFixture f;  // UPS policy by default
  Status s;
  f.sched->Spawn("t", [](CacheFixture* fx, Status* out) -> Task<> {
    co_await TouchBlock(fx->cache.get(), CacheFixture::Id(1, 0), GetMode::kOverwrite, true,
                        out);
  }(&f, &s));
  f.sched->RunFor(Duration::Hours(1));
  // An hour later: still dirty, never written.
  EXPECT_EQ(f.handler->write_calls, 0);
  EXPECT_EQ(f.cache->dirty_count(), 1u);
}

TEST(FlushPolicyTest, NvramBoundsDirtyBytes) {
  // NVRAM budget of 3 blocks; writing 6 blocks must drain along the way.
  NvramPolicy::Options opts;
  opts.nvram_bytes = 3 * 4096;
  opts.whole_file = false;
  CacheFixture f(CacheFixture::DefaultConfig(), nullptr, std::make_unique<NvramPolicy>(opts));
  Status s;
  f.sched->Spawn("t", [](CacheFixture* fx, Status* out) -> Task<> {
    for (uint64_t i = 0; i < 6; ++i) {
      co_await TouchBlock(fx->cache.get(), CacheFixture::Id(1, i), GetMode::kOverwrite, true,
                          out);
    }
  }(&f, &s));
  f.sched->Run();
  EXPECT_TRUE(s.ok());
  // At least 3 blocks had to be written to keep dirty <= 3 blocks.
  EXPECT_GE(f.handler->blocks_written, 3u);
  EXPECT_LE(f.cache->dirty_count(), 3u);
}

TEST(FlushPolicyTest, NvramWholeFileFlushWritesFileAtOnce) {
  NvramPolicy::Options opts;
  opts.nvram_bytes = 3 * 4096;
  opts.whole_file = true;
  CacheFixture f(CacheFixture::DefaultConfig(), nullptr, std::make_unique<NvramPolicy>(opts));
  Status s;
  f.sched->Spawn("t", [](CacheFixture* fx, Status* out) -> Task<> {
    // Three dirty blocks of one file fill NVRAM; the fourth write (other
    // file) forces a whole-file flush of the first file.
    for (uint64_t i = 0; i < 3; ++i) {
      co_await TouchBlock(fx->cache.get(), CacheFixture::Id(1, i), GetMode::kOverwrite, true,
                          out);
    }
    co_await TouchBlock(fx->cache.get(), CacheFixture::Id(2, 0), GetMode::kOverwrite, true,
                        out);
  }(&f, &s));
  f.sched->Run();
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(f.handler->write_calls, 1);
  EXPECT_EQ(f.handler->blocks_written, 3u);  // whole file 1 in one call
}

TEST(FlushPolicyTest, FactoryNames) {
  EXPECT_EQ(MakeFlushPolicy("write-delay")->name(), "write-delay-30s");
  EXPECT_EQ(MakeFlushPolicy("ups")->name(), "ups-write-saving");
  EXPECT_EQ(MakeFlushPolicy("nvram-whole")->name(), "nvram-whole-file");
  EXPECT_EQ(MakeFlushPolicy("nvram-partial")->name(), "nvram-partial-file");
}

TEST(BufferCacheTest, AsyncFlushRelievesAllocator) {
  BufferCache::Config config = CacheFixture::DefaultConfig();
  config.async_flush = true;
  config.flusher_target_blocks = 2;
  CacheFixture f(config);
  Status s;
  f.sched->Spawn("t", [](CacheFixture* fx, Status* out) -> Task<> {
    for (uint64_t i = 0; i < 8; ++i) {
      co_await TouchBlock(fx->cache.get(), CacheFixture::Id(1, i), GetMode::kOverwrite, true,
                          out);
    }
    // Cache is now all-dirty; the next allocation wakes the flusher daemon.
    co_await TouchBlock(fx->cache.get(), CacheFixture::Id(2, 0), GetMode::kRead, false, out);
  }(&f, &s));
  f.sched->Run();
  EXPECT_TRUE(s.ok());
  EXPECT_GE(f.handler->write_calls, 1);
}

TEST(ReplacementTest, EvictFirstHintEvictsStreamBlocksFirst) {
  CacheFixture f;
  f.cache->SetFileHint(1, 99, FileCacheHint::kEvictFirst);
  Status s;
  f.sched->Spawn("t", [](CacheFixture* fx, Status* out) -> Task<> {
    // 4 normal blocks, then 4 stream blocks, then 1 more normal block: the
    // stream blocks must be evicted before the normal ones.
    for (uint64_t i = 0; i < 4; ++i) {
      co_await TouchBlock(fx->cache.get(), CacheFixture::Id(1, i), GetMode::kRead, false, out);
    }
    for (uint64_t i = 0; i < 4; ++i) {
      co_await TouchBlock(fx->cache.get(), CacheFixture::Id(99, i), GetMode::kRead, false, out);
    }
    const int fills_before = fx->handler->fills;
    co_await TouchBlock(fx->cache.get(), CacheFixture::Id(2, 0), GetMode::kRead, false, out);
    // All four normal blocks must still hit.
    for (uint64_t i = 0; i < 4; ++i) {
      co_await TouchBlock(fx->cache.get(), CacheFixture::Id(1, i), GetMode::kRead, false, out);
    }
    PFS_CHECK(fx->handler->fills == fills_before + 1);  // only the new block missed
  }(&f, &s));
  f.sched->Run();
  EXPECT_TRUE(s.ok());
}

TEST(ReplacementTest, LfuKeepsHotBlocks) {
  CacheFixture f(CacheFixture::DefaultConfig(), std::make_unique<LfuReplacement>());
  Status s;
  f.sched->Spawn("t", [](CacheFixture* fx, Status* out) -> Task<> {
    // Access block (1,0) many times, fill the rest once each, then overflow.
    for (int rep = 0; rep < 10; ++rep) {
      co_await TouchBlock(fx->cache.get(), CacheFixture::Id(1, 0), GetMode::kRead, false, out);
    }
    for (uint64_t i = 1; i < 8; ++i) {
      co_await TouchBlock(fx->cache.get(), CacheFixture::Id(1, i), GetMode::kRead, false, out);
    }
    co_await TouchBlock(fx->cache.get(), CacheFixture::Id(2, 0), GetMode::kRead, false, out);
    // The hot block must have survived.
    const int fills_before = fx->handler->fills;
    co_await TouchBlock(fx->cache.get(), CacheFixture::Id(1, 0), GetMode::kRead, false, out);
    PFS_CHECK(fx->handler->fills == fills_before);
  }(&f, &s));
  f.sched->Run();
  EXPECT_TRUE(s.ok());
}

TEST(ReplacementTest, FactoryMakesAllPolicies) {
  for (const char* name : {"LRU", "RANDOM", "LFU", "SLRU", "LRU-2"}) {
    auto policy = MakeReplacementPolicy(name, 3);
    ASSERT_NE(policy, nullptr);
    EXPECT_STREQ(policy->name(), name);
  }
}

TEST(DataMoverTest, SimMoverChargesCopyTime) {
  auto sched = Scheduler::CreateVirtual();
  HostModel host;
  host.mem_bandwidth_bytes_per_sec = 50'000'000;
  SimDataMover mover(sched.get(), host);
  sched->Spawn("t", [](DataMover* m) -> Task<> {
    co_await m->Move({}, {}, 50'000'000);  // 1 second worth
  }(&mover));
  sched->Run();
  EXPECT_EQ(sched->Now(), TimePoint() + Duration::Seconds(1));
}

TEST(DataMoverTest, RealMoverCopiesBytes) {
  auto sched = Scheduler::CreateVirtual();
  RealDataMover mover;
  std::vector<std::byte> src(64, std::byte{0x7});
  std::vector<std::byte> dst(64);
  sched->Spawn("t", [](DataMover* m, std::span<std::byte> d,
                       std::span<const std::byte> s) -> Task<> {
    co_await m->Move(d, s, 64);
  }(&mover, dst, src));
  sched->Run();
  EXPECT_EQ(dst, src);
  EXPECT_EQ(sched->Now(), TimePoint());  // no artificial delay
}

TEST(BufferCacheTest, StatReportShowsPolicies) {
  CacheFixture f;
  const std::string report = f.cache->StatReport(false);
  EXPECT_NE(report.find("policy=ups-write-saving"), std::string::npos);
  EXPECT_NE(report.find("repl=LRU"), std::string::npos);
}

}  // namespace
}  // namespace pfs
