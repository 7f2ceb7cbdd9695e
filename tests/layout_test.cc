// Unit tests for src/layout: inode/block-map encoding, the segmented LFS
// (log append, liveness, cleaner, checkpoint persistence), the FFS-lite
// baseline, and the simulator's guessing layout.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <type_traits>

#include "bus/scsi_bus.h"
#include "disk/disk_model.h"
#include "driver/file_backed_driver.h"
#include "driver/io_executor.h"
#include "driver/sim_disk_driver.h"
#include "layout/cleaner.h"
#include "layout/ffs_layout.h"
#include "layout/guessing_layout.h"
#include "layout/lfs_layout.h"
#include "sched/scheduler.h"
#include "volume/volume.h"

namespace pfs {
namespace {

TEST(InodeTest, SerializeRoundTrip) {
  Inode inode;
  inode.ino = 42;
  inode.type = FileType::kRegular;
  inode.nlink = 3;
  inode.size = 123456;
  inode.mtime_ns = 987654321;
  inode.flags = 7;
  inode.bmap[0] = 100;
  inode.bmap[11] = 200;

  std::vector<std::byte> buf;
  Serializer s(&buf);
  inode.Serialize(&s);
  EXPECT_EQ(buf.size(), Inode::kDiskSize);

  Deserializer d(buf);
  auto decoded = Inode::Deserialize(&d);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->ino, 42u);
  EXPECT_EQ(decoded->type, FileType::kRegular);
  EXPECT_EQ(decoded->nlink, 3u);
  EXPECT_EQ(decoded->size, 123456u);
  EXPECT_EQ(decoded->mtime_ns, 987654321);
  EXPECT_EQ(decoded->bmap[0], 100u);
  EXPECT_EQ(decoded->bmap[11], 200u);
}

TEST(InodeTest, RejectsBadType) {
  std::vector<std::byte> buf(Inode::kDiskSize, std::byte{0xff});
  Deserializer d(buf);
  EXPECT_EQ(Inode::Deserialize(&d).code(), ErrorCode::kCorrupt);
}

TEST(BlockMapTest, SetGetAndTruncate) {
  BlockMap bmap(4096);
  EXPECT_EQ(bmap.Get(5), kNullAddr);
  EXPECT_EQ(bmap.Set(5, 1000), kNullAddr);
  EXPECT_EQ(bmap.Get(5), 1000u);
  EXPECT_EQ(bmap.Set(5, 2000), 1000u);  // returns old address
  bmap.Set(600, 3000);                  // second chunk (512 entries per chunk)
  EXPECT_EQ(bmap.chunk_count(), 2u);
  std::vector<uint64_t> freed;
  bmap.TruncateFrom(6, [&freed](uint64_t addr) { freed.push_back(addr); });
  ASSERT_EQ(freed.size(), 1u);
  EXPECT_EQ(freed[0], 3000u);
  EXPECT_EQ(bmap.Get(5), 2000u);
  EXPECT_EQ(bmap.Get(600), kNullAddr);
}

TEST(BlockMapTest, ChunkSerializeRoundTrip) {
  BlockMap a(4096);
  a.Set(0, 11);
  a.Set(511, 22);
  std::vector<std::byte> buf;
  Serializer s(&buf);
  a.SerializeChunk(0, &s);
  EXPECT_EQ(buf.size(), 4096u);

  BlockMap b(4096);
  Deserializer d(buf);
  ASSERT_TRUE(b.DeserializeChunk(0, &d).ok());
  EXPECT_EQ(b.Get(0), 11u);
  EXPECT_EQ(b.Get(511), 22u);
  EXPECT_EQ(b.Get(100), kNullAddr);
}

TEST(BlockMapTest, ShortPrefixSerializesToAFullWidthChunk) {
  BlockMap bmap(4096);
  for (uint64_t b = 0; b < 4; ++b) {
    bmap.Set(b, 100 + b);
  }
  EXPECT_EQ(bmap.ChunkPrefix(0), 4u);
  std::vector<std::byte> held;
  Serializer s(&held);
  bmap.SerializeChunk(0, &s);

  std::vector<std::byte> full;
  Serializer f(&full);
  for (uint64_t i = 0; i < 512; ++i) {
    f.PutU64(i < 4 ? 100 + i : kNullAddr);
  }
  ASSERT_EQ(full.size(), 4096u);
  EXPECT_EQ(held, full);
}

TEST(BlockMapTest, SettingAHolePastThePrefixChangesNothing) {
  BlockMap bmap(4096);
  bmap.Set(2, 7);
  bmap.MarkChunkClean(0);
  EXPECT_EQ(bmap.Set(300, kNullAddr), kNullAddr);
  EXPECT_EQ(bmap.ChunkPrefix(0), 3u);
  EXPECT_FALSE(bmap.ChunkDirty(0));
  EXPECT_EQ(bmap.Get(300), kNullAddr);

  // On a chunk never set it still loads the chunk, with an empty prefix, so
  // a later LoadChunk does not read it from its block.
  EXPECT_EQ(bmap.Set(700, kNullAddr), kNullAddr);
  EXPECT_TRUE(bmap.ChunkLoaded(1));
  EXPECT_EQ(bmap.ChunkPrefix(1), 0u);
  EXPECT_FALSE(bmap.ChunkDirty(1));
}

TEST(BlockMapTest, DeserializingAllHolesLoadsAnEmptyChunk) {
  std::vector<std::byte> holes;
  Serializer s(&holes);
  for (int i = 0; i < 512; ++i) {
    s.PutU64(kNullAddr);
  }
  BlockMap bmap(4096);
  Deserializer d(holes);
  ASSERT_TRUE(bmap.DeserializeChunk(0, &d).ok());
  EXPECT_TRUE(bmap.ChunkLoaded(0));
  EXPECT_FALSE(bmap.ChunkDirty(0));
  EXPECT_EQ(bmap.ChunkPrefix(0), 0u);
  for (uint64_t b = 0; b < 512; ++b) {
    EXPECT_EQ(bmap.Get(b), kNullAddr) << b;
  }
}

TEST(BlockMapTest, DeserializingTrimsTrailingHoles) {
  BlockMap a(4096);
  a.Set(1, 11);
  a.Set(9, 22);
  a.Set(9, kNullAddr);  // the prefix keeps its hole tail until reloaded
  std::vector<std::byte> buf;
  Serializer s(&buf);
  a.SerializeChunk(0, &s);

  BlockMap b(4096);
  Deserializer d(buf);
  ASSERT_TRUE(b.DeserializeChunk(0, &d).ok());
  EXPECT_EQ(b.ChunkPrefix(0), 2u);
  EXPECT_EQ(b.Get(1), 11u);
  EXPECT_EQ(b.Get(9), kNullAddr);
}

TEST(BlockMapTest, TruncateInsideThePrefixFreesTheMappedTail) {
  BlockMap bmap(4096);
  bmap.Set(0, 10);
  bmap.Set(2, 12);
  bmap.Set(3, 13);
  bmap.Set(5, 15);
  bmap.MarkChunkClean(0);
  std::vector<uint64_t> freed;
  bmap.TruncateFrom(3, [&freed](uint64_t addr) { freed.push_back(addr); });
  EXPECT_EQ(freed, (std::vector<uint64_t>{13, 15}));
  EXPECT_TRUE(bmap.ChunkDirty(0));
  EXPECT_EQ(bmap.ChunkPrefix(0), 3u);
  EXPECT_EQ(bmap.Get(0), 10u);
  EXPECT_EQ(bmap.Get(2), 12u);
  EXPECT_EQ(bmap.Get(3), kNullAddr);
  EXPECT_EQ(bmap.Get(5), kNullAddr);
  EXPECT_EQ(bmap.AllAddresses(), (std::vector<uint64_t>{10, 12}));

  // Nothing mapped at or past the cut: nothing freed, the chunk stays clean.
  bmap.MarkChunkClean(0);
  freed.clear();
  bmap.TruncateFrom(100, [&freed](uint64_t addr) { freed.push_back(addr); });
  EXPECT_TRUE(freed.empty());
  EXPECT_FALSE(bmap.ChunkDirty(0));
}

TEST(BlockMapTest, MaxFileSize) {
  EXPECT_EQ(Inode::MaxFileSize(4096), 12ull * 512 * 4096);  // 24 MiB
}

TEST(CleanerPolicyTest, GreedyPicksEmptiest) {
  GreedyCleanerPolicy policy;
  std::vector<SegmentInfo> segs(4);
  segs[0] = {SegmentState::kFull, 10, 1};
  segs[1] = {SegmentState::kFull, 2, 2};
  segs[2] = {SegmentState::kActive, 0, 3};
  segs[3] = {SegmentState::kFree, 0, 0};
  EXPECT_EQ(policy.PickSegment(segs, 15, 10), 1);
}

TEST(CleanerPolicyTest, CostBenefitPrefersColdSegments) {
  CostBenefitCleanerPolicy policy;
  std::vector<SegmentInfo> segs(2);
  // Same utilization; segment 0 much older.
  segs[0] = {SegmentState::kFull, 8, 1};
  segs[1] = {SegmentState::kFull, 8, 99};
  EXPECT_EQ(policy.PickSegment(segs, 15, 100), 0);
  // A slightly fuller but far older segment beats a fresh empty-ish one.
  segs[0] = {SegmentState::kFull, 10, 1};
  segs[1] = {SegmentState::kFull, 7, 99};
  EXPECT_EQ(policy.PickSegment(segs, 15, 100), 0);
}

TEST(CleanerPolicyTest, NoFullSegments) {
  GreedyCleanerPolicy greedy;
  CostBenefitCleanerPolicy cb;
  std::vector<SegmentInfo> segs(2);  // all kFree
  EXPECT_EQ(greedy.PickSegment(segs, 15, 1), -1);
  EXPECT_EQ(cb.PickSegment(segs, 15, 1), -1);
}

// -- simulated-mode LFS fixture ----------------------------------------------

struct LfsSimFixture {
  explicit LfsSimFixture(LfsConfig config = DefaultConfig()) {
    sched = Scheduler::CreateVirtual(11);
    ScsiBus::Params bus_params;
    bus_params.arbitration_delay = Duration();
    bus = std::make_unique<ScsiBus>(sched.get(), "scsi0", bus_params);
    disk = std::make_unique<DiskModel>(sched.get(), "d0", DiskParams::SyntheticTest(),
                                       bus.get());
    disk->Start();
    driver = std::make_unique<SimDiskDriver>(sched.get(), &metrics, "d0", disk.get(),
                                             bus.get());
    driver->Start();
    volume = std::make_unique<SingleDiskVolume>(sched.get(), &metrics, "v0",
                                                driver.get());
    layout = std::make_unique<LfsLayout>(sched.get(), BlockDev(volume.get(), 4096), config,
                                         MakeCleanerPolicy("greedy"));
  }

  static LfsConfig DefaultConfig() {
    LfsConfig c;
    c.fs_id = 1;
    c.segment_blocks = 16;  // 15 usable data blocks per segment
    c.max_inodes = 128;
    c.cleaner_low = 4;
    c.cleaner_high = 8;
    c.enable_cleaner = false;  // tests enable explicitly
    c.materialize_metadata = false;
    return c;
  }

  // Builds standalone cache blocks (no BufferCache needed at this layer).
  std::vector<std::unique_ptr<CacheBlock>> MakeBlocks(uint64_t ino,
                                                      std::vector<uint64_t> blocks) {
    std::vector<std::unique_ptr<CacheBlock>> out;
    for (uint64_t b : blocks) {
      auto cb = std::make_unique<CacheBlock>(sched.get());
      cb->id = BlockId{1, ino, b};
      out.push_back(std::move(cb));
    }
    return out;
  }

  Status WriteBlocks(uint64_t ino, std::vector<uint64_t> blocks) {
    Status result(ErrorCode::kAborted);
    auto owned = MakeBlocks(ino, std::move(blocks));
    std::vector<CacheBlock*> ptrs;
    for (auto& b : owned) {
      ptrs.push_back(b.get());
    }
    sched->Spawn("w", [](LfsLayout* l, uint64_t i, std::vector<CacheBlock*> p,
                         Status* out) -> Task<> {
      *out = co_await l->WriteFileBlocks(i, p);
    }(layout.get(), ino, ptrs, &result));
    sched->Run();
    return result;
  }

  MetricRegistry metrics{1, "pfs"};
  std::unique_ptr<Scheduler> sched;
  std::unique_ptr<ScsiBus> bus;
  std::unique_ptr<DiskModel> disk;
  std::unique_ptr<SimDiskDriver> driver;
  std::unique_ptr<SingleDiskVolume> volume;
  std::unique_ptr<LfsLayout> layout;
};

Task<> FormatTask(StorageLayout* l, Status* out) { *out = co_await l->Format(); }

TEST(LfsLayoutTest, FormatCreatesRoot) {
  LfsSimFixture f;
  Status s(ErrorCode::kAborted);
  f.sched->Spawn("fmt", FormatTask(f.layout.get(), &s));
  f.sched->Run();
  ASSERT_TRUE(s.ok());
  EXPECT_NE(f.layout->root_ino(), 0u);
  EXPECT_GT(f.layout->log_blocks_written(), 0u);
}

TEST(LfsLayoutTest, WriteAppendsToLog) {
  LfsSimFixture f;
  Status s;
  f.sched->Spawn("fmt", FormatTask(f.layout.get(), &s));
  f.sched->Run();

  uint64_t ino = 0;
  f.sched->Spawn("alloc", [](LfsLayout* l, uint64_t* out) -> Task<> {
    auto r = co_await l->AllocInode(FileType::kRegular);
    *out = r.ok() ? *r : 0;
  }(f.layout.get(), &ino));
  f.sched->Run();
  ASSERT_NE(ino, 0u);

  const uint64_t before = f.layout->log_blocks_written();
  ASSERT_TRUE(f.WriteBlocks(ino, {0, 1, 2}).ok());
  // 3 data + 1 bmap chunk + 1 inode block appended.
  EXPECT_EQ(f.layout->log_blocks_written(), before + 5);
}

TEST(LfsLayoutTest, OverwriteMakesOldBlocksDead) {
  LfsSimFixture f;
  Status s;
  f.sched->Spawn("fmt", FormatTask(f.layout.get(), &s));
  f.sched->Run();
  uint64_t ino = 0;
  f.sched->Spawn("alloc", [](LfsLayout* l, uint64_t* out) -> Task<> {
    auto r = co_await l->AllocInode(FileType::kRegular);
    *out = r.ok() ? *r : 0;
  }(f.layout.get(), &ino));
  f.sched->Run();

  ASSERT_TRUE(f.WriteBlocks(ino, {0, 1, 2, 3}).ok());
  const uint64_t free_before = f.layout->FreeBlocksEstimate();
  // Overwriting the same file blocks appends anew and kills the old copies;
  // net live data stays constant while free space shrinks by the append.
  ASSERT_TRUE(f.WriteBlocks(ino, {0, 1, 2, 3}).ok());
  EXPECT_LT(f.layout->FreeBlocksEstimate(), free_before);
  EXPECT_GT(f.layout->WriteCost(), 1.0);  // metadata amplification visible
}

TEST(LfsLayoutTest, ReadHoleIsZeroAndFree) {
  LfsSimFixture f;
  Status s;
  f.sched->Spawn("fmt", FormatTask(f.layout.get(), &s));
  f.sched->Run();
  uint64_t ino = 0;
  f.sched->Spawn("alloc", [](LfsLayout* l, uint64_t* out) -> Task<> {
    auto r = co_await l->AllocInode(FileType::kRegular);
    *out = r.ok() ? *r : 0;
  }(f.layout.get(), &ino));
  f.sched->Run();

  Status read_status(ErrorCode::kAborted);
  const uint64_t reads_before = f.disk->reads();
  f.sched->Spawn("r", [](LfsLayout* l, uint64_t i, Status* out) -> Task<> {
    *out = co_await l->ReadFileBlock(i, 7, {});
  }(f.layout.get(), ino, &read_status));
  f.sched->Run();
  EXPECT_TRUE(read_status.ok());
  EXPECT_EQ(f.disk->reads(), reads_before);  // hole: no I/O
}

TEST(LfsLayoutTest, SegmentRollover) {
  LfsSimFixture f;
  Status s;
  f.sched->Spawn("fmt", FormatTask(f.layout.get(), &s));
  f.sched->Run();
  uint64_t ino = 0;
  f.sched->Spawn("alloc", [](LfsLayout* l, uint64_t* out) -> Task<> {
    auto r = co_await l->AllocInode(FileType::kRegular);
    *out = r.ok() ? *r : 0;
  }(f.layout.get(), &ino));
  f.sched->Run();

  // 40 data blocks > 2 segments' worth (15 usable each): forces rollover.
  std::vector<uint64_t> blocks;
  for (uint64_t i = 0; i < 40; ++i) {
    blocks.push_back(i);
  }
  ASSERT_TRUE(f.WriteBlocks(ino, blocks).ok());
  const uint32_t nsegs_free = f.layout->free_segments();
  EXPECT_LE(nsegs_free, 28u);  // at least three segments consumed
}

TEST(LfsLayoutTest, NoSpaceWithoutCleaner) {
  LfsSimFixture f;
  Status s;
  f.sched->Spawn("fmt", FormatTask(f.layout.get(), &s));
  f.sched->Run();
  uint64_t ino = 0;
  f.sched->Spawn("alloc", [](LfsLayout* l, uint64_t* out) -> Task<> {
    auto r = co_await l->AllocInode(FileType::kRegular);
    *out = r.ok() ? *r : 0;
  }(f.layout.get(), &ino));
  f.sched->Run();

  // Keep overwriting one file: the log fills with dead blocks and, with no
  // cleaner, eventually reports no-space.
  Status status = OkStatus();
  for (int round = 0; round < 100 && status.ok(); ++round) {
    status = f.WriteBlocks(ino, {0, 1, 2, 3, 4, 5, 6, 7});
  }
  EXPECT_EQ(status.code(), ErrorCode::kNoSpace);
}

TEST(LfsLayoutTest, CleanerReclaimsDeadSegments) {
  LfsConfig config = LfsSimFixture::DefaultConfig();
  config.enable_cleaner = true;
  LfsSimFixture f(config);
  Status s;
  f.sched->Spawn("fmt", FormatTask(f.layout.get(), &s));
  f.sched->Run();
  f.layout->Start();  // cleaner daemon
  uint64_t ino = 0;
  f.sched->Spawn("alloc", [](LfsLayout* l, uint64_t* out) -> Task<> {
    auto r = co_await l->AllocInode(FileType::kRegular);
    *out = r.ok() ? *r : 0;
  }(f.layout.get(), &ino));
  f.sched->Run();

  // Overwrite far more data than the log holds; the cleaner must reclaim
  // dead segments continuously for this to succeed.
  Status status = OkStatus();
  for (int round = 0; round < 120 && status.ok(); ++round) {
    status = f.WriteBlocks(ino, {0, 1, 2, 3, 4, 5, 6, 7});
  }
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_GT(f.layout->segments_cleaned(), 0u);
  EXPECT_GT(f.layout->free_segments(), 0u);
}

TEST(LfsLayoutTest, TruncateFreesSpace) {
  LfsSimFixture f;
  Status s;
  f.sched->Spawn("fmt", FormatTask(f.layout.get(), &s));
  f.sched->Run();
  uint64_t ino = 0;
  f.sched->Spawn("alloc", [](LfsLayout* l, uint64_t* out) -> Task<> {
    auto r = co_await l->AllocInode(FileType::kRegular);
    *out = r.ok() ? *r : 0;
  }(f.layout.get(), &ino));
  f.sched->Run();
  ASSERT_TRUE(f.WriteBlocks(ino, {0, 1, 2, 3, 4, 5}).ok());

  Status trunc(ErrorCode::kAborted);
  f.sched->Spawn("t", [](LfsLayout* l, uint64_t i, Status* out) -> Task<> {
    *out = co_await l->TruncateBlocks(i, 2);
  }(f.layout.get(), ino, &trunc));
  f.sched->Run();
  EXPECT_TRUE(trunc.ok());
  // Segment-usage accounting shows the dead blocks (free segments change
  // only after cleaning, so check the estimate did not *drop*).
  Status read_status(ErrorCode::kAborted);
  const uint64_t reads_before = f.disk->reads();
  f.sched->Spawn("r", [](LfsLayout* l, uint64_t i, Status* out) -> Task<> {
    *out = co_await l->ReadFileBlock(i, 4, {});  // truncated away: now a hole
  }(f.layout.get(), ino, &read_status));
  f.sched->Run();
  EXPECT_TRUE(read_status.ok());
  EXPECT_EQ(f.disk->reads(), reads_before);
}

// -- real-mode (file-backed) LFS ----------------------------------------------

class LfsRealTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = testing::TempDir() + "/pfs_lfs_real.img";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  static LfsConfig RealConfig() {
    LfsConfig c;
    c.fs_id = 1;
    c.segment_blocks = 16;
    c.max_inodes = 128;
    c.enable_cleaner = false;
    c.materialize_metadata = true;
    return c;
  }

  std::string path_;
};

// Formats a materialized layout on a file-backed image, allocates a file,
// writes `file_block` with a byte pattern and unmounts. A fresh layout then
// mounts the image with empty caches, so its ReadInode and ReadFileBlock read
// the inode and the block-map chunk back from disk.
template <typename Layout, typename MakeLayout>
void CheckPersistsAcrossRemount(const std::string& path, uint64_t file_block,
                                MakeLayout make_layout) {
  IoExecutor executor(2);
  uint64_t ino = 0;
  std::vector<std::byte> payload(4096);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>((i * 7) & 0xff);
  }

  {
    auto sched = Scheduler::CreateVirtual();
    MetricRegistry metrics(1, "pfs");
    auto driver =
        std::move(FileBackedDriver::Create(sched.get(), &metrics, "d0", path, 4 * kMiB,
                                           &executor))
            .value();
    driver->Start();
    SingleDiskVolume volume(sched.get(), &metrics, "v0", driver.get());
    std::unique_ptr<Layout> layout = make_layout(sched.get(), BlockDev(&volume, 4096));
    Status status(ErrorCode::kAborted);
    sched->Spawn("run", [](Layout* l, uint64_t size, uint64_t* out_ino,
                           Status* out) -> Task<> {
      *out = co_await l->Format();
      if (!out->ok()) {
        co_return;
      }
      auto ino_or = co_await l->AllocInode(FileType::kRegular);
      if (!ino_or.ok()) {
        *out = ino_or.status();
        co_return;
      }
      *out_ino = *ino_or;
      auto inode_or = co_await l->ReadInode(*out_ino);
      Inode inode = *inode_or;
      inode.size = size;
      *out = co_await l->WriteInode(inode);
    }(layout.get(), (file_block + 1) * 4096, &ino, &status));
    sched->Run();
    ASSERT_TRUE(status.ok()) << status.ToString();

    // Write one data block with real bytes.
    auto block = std::make_unique<CacheBlock>(sched.get());
    block->id = BlockId{1, ino, file_block};
    block->data = payload;
    Status wstatus(ErrorCode::kAborted);
    std::vector<CacheBlock*> ptrs{block.get()};
    sched->Spawn("w", [](Layout* l, uint64_t i, std::vector<CacheBlock*> p,
                         Status* out) -> Task<> {
      *out = co_await l->WriteFileBlocks(i, p);
      if (out->ok()) {
        *out = co_await l->Unmount();
      }
    }(layout.get(), ino, ptrs, &wstatus));
    sched->Run();
    ASSERT_TRUE(wstatus.ok()) << wstatus.ToString();
  }

  {
    auto sched = Scheduler::CreateVirtual();
    MetricRegistry metrics(1, "pfs");
    auto driver =
        std::move(FileBackedDriver::Create(sched.get(), &metrics, "d0", path, 4 * kMiB,
                                           &executor))
            .value();
    driver->Start();
    SingleDiskVolume volume(sched.get(), &metrics, "v0", driver.get());
    std::unique_ptr<Layout> layout = make_layout(sched.get(), BlockDev(&volume, 4096));
    Status status(ErrorCode::kAborted);
    std::vector<std::byte> read_back(4096);
    Inode inode;
    sched->Spawn("run", [](Layout* l, uint64_t i, uint64_t b, std::span<std::byte> out_data,
                           Inode* out_inode, Status* out) -> Task<> {
      *out = co_await l->Mount();
      if (!out->ok()) {
        co_return;
      }
      auto inode_or = co_await l->ReadInode(i);
      if (!inode_or.ok()) {
        *out = inode_or.status();
        co_return;
      }
      *out_inode = *inode_or;
      *out = co_await l->ReadFileBlock(i, b, out_data);
    }(layout.get(), ino, file_block, read_back, &inode, &status));
    sched->Run();
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(inode.size, (file_block + 1) * 4096);
    EXPECT_EQ(inode.type, FileType::kRegular);
    EXPECT_NE(inode.bmap[file_block / 512], kNullAddr);  // 512 entries per chunk
    EXPECT_EQ(read_back, payload);
  }
}

TEST_F(LfsRealTest, PersistsAcrossRemount) {
  CheckPersistsAcrossRemount<LfsLayout>(path_, 0, [](Scheduler* sched, BlockDev dev) {
    return std::make_unique<LfsLayout>(sched, std::move(dev), RealConfig(),
                                       MakeCleanerPolicy("greedy"));
  });
}

// Free segments by a walk of the segment table: the reference the layout's
// running count must match.
uint32_t CountFreeSegments(const LfsLayout& layout) {
  uint32_t n = 0;
  for (const SegmentInfo& seg : layout.segment_table()) {
    n += seg.state == SegmentState::kFree ? 1 : 0;
  }
  return n;
}

TEST_F(LfsRealTest, FreeSegmentCountMatchesTableThroughCleaningAndRemount) {
  IoExecutor executor(2);
  LfsConfig config = RealConfig();
  config.enable_cleaner = true;
  config.cleaner_low = 4;
  config.cleaner_high = 8;
  uint32_t free_at_unmount = 0;

  {
    auto sched = Scheduler::CreateVirtual();
    MetricRegistry metrics(1, "pfs");
    auto driver =
        std::move(FileBackedDriver::Create(sched.get(), &metrics, "d0", path_, 4 * kMiB,
                                           &executor))
            .value();
    driver->Start();
    SingleDiskVolume volume(sched.get(), &metrics, "v0", driver.get());
    LfsLayout layout(sched.get(), BlockDev(&volume, 4096), config,
                     MakeCleanerPolicy("greedy"));
    uint64_t ino = 0;
    Status status(ErrorCode::kAborted);
    sched->Spawn("fmt", [](LfsLayout* l, uint64_t* out_ino, Status* out) -> Task<> {
      *out = co_await l->Format();
      if (!out->ok()) {
        co_return;
      }
      auto ino_or = co_await l->AllocInode(FileType::kRegular);
      *out = ino_or.status();
      *out_ino = ino_or.ok() ? *ino_or : 0;
    }(&layout, &ino, &status));
    sched->Run();
    ASSERT_TRUE(status.ok()) << status.ToString();
    const uint32_t formatted = layout.free_segments();
    EXPECT_EQ(formatted, layout.segment_table().size() - 1);  // segment 0 is the log head
    EXPECT_EQ(formatted, CountFreeSegments(layout));
    layout.Start();  // cleaner daemon

    // Each round appends 8 data blocks plus the file's metadata, closing a
    // 15-block segment every round or two; the rounds wrap the 4 MiB log,
    // so the cleaner has to free segments.
    std::vector<std::unique_ptr<CacheBlock>> owned;
    std::vector<CacheBlock*> blocks;
    for (uint64_t b = 0; b < 8; ++b) {
      owned.push_back(std::make_unique<CacheBlock>(sched.get()));
      owned.back()->id = BlockId{1, ino, b};
      blocks.push_back(owned.back().get());
    }
    bool closed_segments = false;
    for (int round = 0; round < 300 && layout.segments_cleaned() < 3; ++round) {
      sched->Spawn("w", [](LfsLayout* l, uint64_t i, std::vector<CacheBlock*> p,
                           Status* out) -> Task<> {
        *out = co_await l->WriteFileBlocks(i, p);
      }(&layout, ino, blocks, &status));
      sched->Run();
      ASSERT_TRUE(status.ok()) << "round " << round << ": " << status.ToString();
      closed_segments = closed_segments || layout.free_segments() < formatted;
      ASSERT_EQ(layout.free_segments(), CountFreeSegments(layout)) << "round " << round;
    }
    EXPECT_TRUE(closed_segments);
    EXPECT_GE(layout.segments_cleaned(), 3u);

    sched->Spawn("unmount", [](LfsLayout* l, Status* out) -> Task<> {
      *out = co_await l->Unmount();
    }(&layout, &status));
    sched->Run();
    ASSERT_TRUE(status.ok()) << status.ToString();
    free_at_unmount = layout.free_segments();
    EXPECT_EQ(free_at_unmount, CountFreeSegments(layout));
  }

  // A fresh layout object knows nothing but what the checkpoint says.
  auto sched = Scheduler::CreateVirtual();
  MetricRegistry metrics(1, "pfs");
  auto driver = std::move(FileBackedDriver::Create(sched.get(), &metrics, "d0", path_,
                                                   4 * kMiB, &executor))
                    .value();
  driver->Start();
  SingleDiskVolume volume(sched.get(), &metrics, "v0", driver.get());
  LfsLayout layout(sched.get(), BlockDev(&volume, 4096), config, MakeCleanerPolicy("greedy"));
  Status status(ErrorCode::kAborted);
  sched->Spawn("mount", [](LfsLayout* l, Status* out) -> Task<> {
    *out = co_await l->Mount();
  }(&layout, &status));
  sched->Run();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(layout.free_segments(), free_at_unmount);
  EXPECT_EQ(layout.free_segments(), CountFreeSegments(layout));
}

// -- FFS ------------------------------------------------------------------------

struct FfsSimFixture {
  FfsSimFixture() {
    sched = Scheduler::CreateVirtual(13);
    ScsiBus::Params bus_params;
    bus_params.arbitration_delay = Duration();
    bus = std::make_unique<ScsiBus>(sched.get(), "scsi0", bus_params);
    disk = std::make_unique<DiskModel>(sched.get(), "d0", DiskParams::SyntheticTest(),
                                       bus.get());
    disk->Start();
    driver = std::make_unique<SimDiskDriver>(sched.get(), &metrics, "d0", disk.get(),
                                             bus.get());
    driver->Start();
    FfsConfig config;
    config.fs_id = 2;
    config.blocks_per_group = 128;
    config.inodes_per_group = 32;
    // A 512-block slice of the disk, entering through the volume layer.
    volume = std::make_unique<SingleDiskVolume>(
        sched.get(), &metrics, "v0",
        VolumeSliceRef(driver.get(), 0, 512 * (4096 / driver->sector_bytes())));
    layout = std::make_unique<FfsLayout>(sched.get(), BlockDev(volume.get(), 4096), config);
  }

  MetricRegistry metrics{1, "pfs"};
  std::unique_ptr<Scheduler> sched;
  std::unique_ptr<ScsiBus> bus;
  std::unique_ptr<DiskModel> disk;
  std::unique_ptr<SimDiskDriver> driver;
  std::unique_ptr<SingleDiskVolume> volume;
  std::unique_ptr<FfsLayout> layout;
};

TEST(FfsLayoutTest, FormatAndAllocate) {
  FfsSimFixture f;
  Status s(ErrorCode::kAborted);
  f.sched->Spawn("fmt", FormatTask(f.layout.get(), &s));
  f.sched->Run();
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(f.layout->root_ino(), 1u);
  EXPECT_GT(f.layout->group_count(), 1u);
}

TEST(FfsLayoutTest, WritesInPlace) {
  FfsSimFixture f;
  Status s;
  f.sched->Spawn("fmt", FormatTask(f.layout.get(), &s));
  f.sched->Run();
  uint64_t ino = 0;
  f.sched->Spawn("alloc", [](FfsLayout* l, uint64_t* out) -> Task<> {
    auto r = co_await l->AllocInode(FileType::kRegular);
    *out = r.ok() ? *r : 0;
  }(f.layout.get(), &ino));
  f.sched->Run();
  ASSERT_NE(ino, 0u);

  auto write_once = [&](Status* out) {
    auto block = std::make_unique<CacheBlock>(f.sched.get());
    block->id = BlockId{2, ino, 0};
    std::vector<CacheBlock*> ptrs{block.get()};
    f.sched->Spawn("w", [](FfsLayout* l, uint64_t i, std::vector<CacheBlock*> p,
                           Status* st) -> Task<> {
      *st = co_await l->WriteFileBlocks(i, p);
    }(f.layout.get(), ino, ptrs, out));
    f.sched->Run();
  };
  Status w1(ErrorCode::kAborted);
  write_once(&w1);
  ASSERT_TRUE(w1.ok());
  const uint64_t free_after_first = f.layout->FreeBlocksEstimate();
  Status w2(ErrorCode::kAborted);
  write_once(&w2);
  ASSERT_TRUE(w2.ok());
  // Update-in-place: the rewrite allocates nothing new.
  EXPECT_EQ(f.layout->FreeBlocksEstimate(), free_after_first);
}

TEST(FfsLayoutTest, FreeInodeReturnsBlocks) {
  FfsSimFixture f;
  Status s;
  f.sched->Spawn("fmt", FormatTask(f.layout.get(), &s));
  f.sched->Run();
  const uint64_t free_initial = f.layout->FreeBlocksEstimate();

  uint64_t ino = 0;
  f.sched->Spawn("alloc", [](FfsLayout* l, uint64_t* out) -> Task<> {
    auto r = co_await l->AllocInode(FileType::kRegular);
    *out = r.ok() ? *r : 0;
  }(f.layout.get(), &ino));
  f.sched->Run();

  auto block = std::make_unique<CacheBlock>(f.sched.get());
  block->id = BlockId{2, ino, 0};
  std::vector<CacheBlock*> ptrs{block.get()};
  Status fin(ErrorCode::kAborted);
  f.sched->Spawn("wf", [](FfsLayout* l, uint64_t i, std::vector<CacheBlock*> p,
                          Status* out) -> Task<> {
    *out = co_await l->WriteFileBlocks(i, p);
    if (out->ok()) {
      *out = co_await l->FreeInode(i);
    }
  }(f.layout.get(), ino, ptrs, &fin));
  f.sched->Run();
  ASSERT_TRUE(fin.ok());
  EXPECT_EQ(f.layout->FreeBlocksEstimate(), free_initial);
}

// -- real-mode (file-backed) FFS ----------------------------------------------

class FfsRealTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = testing::TempDir() + "/pfs_ffs_real.img";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  static FfsConfig RealConfig() {
    FfsConfig c;
    c.fs_id = 1;
    c.blocks_per_group = 256;
    c.inodes_per_group = 32;
    c.materialize_metadata = true;
    return c;
  }

  std::string path_;
};

// File block 600 lies in block-map chunk 1.
TEST_F(FfsRealTest, PersistsAcrossRemount) {
  CheckPersistsAcrossRemount<FfsLayout>(path_, 600, [](Scheduler* sched, BlockDev dev) {
    return std::make_unique<FfsLayout>(sched, std::move(dev), RealConfig());
  });
}

// -- both block-mapped layouts ---------------------------------------------------

template <typename Fixture>
class MappedLayoutTest : public ::testing::Test {};

struct MappedLayoutNames {
  template <typename Fixture>
  static std::string GetName(int) {
    return std::is_same_v<Fixture, LfsSimFixture> ? "lfs" : "ffs";
  }
};

using MappedFixtures = ::testing::Types<LfsSimFixture, FfsSimFixture>;
TYPED_TEST_SUITE(MappedLayoutTest, MappedFixtures, MappedLayoutNames);

// A client unlinks files while SyncAll is persisting them: Sync is suspended
// on disk I/O for one inode when all the others are freed. The walk must
// skip the freed inodes and defer the free of the one it is persisting.
TYPED_TEST(MappedLayoutTest, UnlinkDuringSync) {
  TypeParam f;
  Status fmt(ErrorCode::kAborted);
  f.sched->Spawn("fmt", FormatTask(f.layout.get(), &fmt));
  f.sched->Run();
  ASSERT_TRUE(fmt.ok()) << fmt.ToString();

  std::vector<uint64_t> inos;
  f.sched->Spawn("alloc", [](StorageLayout* l, std::vector<uint64_t>* out) -> Task<> {
    for (int i = 0; i < 20; ++i) {
      auto ino_or = co_await l->AllocInode(FileType::kRegular);
      if (ino_or.ok()) {
        out->push_back(*ino_or);
      }
    }
  }(f.layout.get(), &inos));
  f.sched->Run();
  ASSERT_EQ(inos.size(), 20u);

  Status sync(ErrorCode::kAborted);
  Status unlink(ErrorCode::kAborted);
  f.sched->Spawn("sync", [](StorageLayout* l, Status* out) -> Task<> {
    *out = co_await l->Sync();
  }(f.layout.get(), &sync));
  f.sched->Spawn("unlink", [](Scheduler* s, StorageLayout* l, std::vector<uint64_t> victims,
                              Status* out) -> Task<> {
    co_await s->Sleep(Duration::Micros(1));  // Sync is now waiting on the disk
    *out = OkStatus();
    for (uint64_t ino : victims) {
      const Status status = co_await l->FreeInode(ino);
      if (!status.ok()) {
        *out = status;
        co_return;
      }
    }
  }(f.sched.get(), f.layout.get(), inos, &unlink));
  f.sched->Run();
  EXPECT_TRUE(sync.ok()) << sync.ToString();
  EXPECT_TRUE(unlink.ok()) << unlink.ToString();

  std::vector<ErrorCode> codes;
  f.sched->Spawn("read", [](StorageLayout* l, std::vector<uint64_t> freed,
                            std::vector<ErrorCode>* out) -> Task<> {
    for (uint64_t ino : freed) {
      auto inode_or = co_await l->ReadInode(ino);
      out->push_back(inode_or.ok() ? ErrorCode::kOk : inode_or.status().code());
    }
  }(f.layout.get(), inos, &codes));
  f.sched->Run();
  EXPECT_EQ(codes, std::vector<ErrorCode>(inos.size(), ErrorCode::kNotFound));
}

// -- guessing -------------------------------------------------------------------

struct GuessFixture {
  GuessFixture() {
    sched = Scheduler::CreateVirtual(17);
    ScsiBus::Params bus_params;
    bus_params.arbitration_delay = Duration();
    bus = std::make_unique<ScsiBus>(sched.get(), "scsi0", bus_params);
    disk = std::make_unique<DiskModel>(sched.get(), "d0", DiskParams::SyntheticTest(),
                                       bus.get());
    disk->Start();
    driver = std::make_unique<SimDiskDriver>(sched.get(), &metrics, "d0", disk.get(),
                                             bus.get());
    driver->Start();
    GuessingConfig config;
    config.fs_id = 3;
    config.seed = 5;
    volume = std::make_unique<SingleDiskVolume>(
        sched.get(), &metrics, "v0",
        VolumeSliceRef(driver.get(), 0, 512 * (4096 / driver->sector_bytes())));
    layout = std::make_unique<GuessingLayout>(sched.get(), BlockDev(volume.get(), 4096),
                                              config);
  }

  MetricRegistry metrics{1, "pfs"};
  std::unique_ptr<Scheduler> sched;
  std::unique_ptr<ScsiBus> bus;
  std::unique_ptr<DiskModel> disk;
  std::unique_ptr<SimDiskDriver> driver;
  std::unique_ptr<SingleDiskVolume> volume;
  std::unique_ptr<GuessingLayout> layout;
};

TEST(GuessingLayoutTest, SticksToChosenAddresses) {
  GuessFixture f;
  Status s(ErrorCode::kAborted);
  f.sched->Spawn("run", [](GuessingLayout* l, DiskModel* disk, Status* out) -> Task<> {
    *out = co_await l->Format();
    auto ino_or = co_await l->AllocInode(FileType::kRegular);
    PFS_CHECK(ino_or.ok());
    const uint64_t ino = *ino_or;
    // Two reads of the same block: the address guess must be sticky, which
    // we observe through the disk read-ahead cache hitting the second time
    // around... more directly: no crash and both complete.
    *out = co_await l->ReadFileBlock(ino, 3, {});
    PFS_CHECK(out->ok());
    *out = co_await l->ReadFileBlock(ino, 3, {});
    (void)disk;
  }(f.layout.get(), f.disk.get(), &s));
  f.sched->Run();
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(f.disk->reads(), 2u);
}

TEST(GuessingLayoutTest, UnknownInodeNotFound) {
  GuessFixture f;
  ErrorCode code = ErrorCode::kOk;
  f.sched->Spawn("run", [](GuessingLayout* l, ErrorCode* out) -> Task<> {
    (void)co_await l->Format();
    auto r = co_await l->ReadInode(999);
    *out = r.code();
  }(f.layout.get(), &code));
  f.sched->Run();
  EXPECT_EQ(code, ErrorCode::kNotFound);
}

TEST(GuessingLayoutTest, FirstInodeAccessChargesMetadataRead) {
  GuessFixture f;
  f.sched->Spawn("run", [](GuessingLayout* l) -> Task<> {
    (void)co_await l->Format();
    auto ino_or = co_await l->AllocInode(FileType::kRegular);
    PFS_CHECK(ino_or.ok());
    // Created this run: no metadata read charged.
    (void)co_await l->ReadInode(*ino_or);
    (void)co_await l->ReadInode(*ino_or);
  }(f.layout.get()));
  f.sched->Run();
  EXPECT_EQ(f.disk->reads(), 0u);
}

}  // namespace
}  // namespace pfs
