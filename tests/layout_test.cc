// Unit tests for src/layout: inode/block-map encoding, the segmented LFS
// (log append, liveness, cleaner, checkpoint persistence), the FFS-lite
// baseline, and the simulator's guessing layout.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>

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
  auto freed = bmap.TruncateFrom(6);
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

TEST_F(LfsRealTest, PersistsAcrossRemount) {
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
        std::move(FileBackedDriver::Create(sched.get(), &metrics, "d0", path_, 4 * kMiB,
                                           &executor))
            .value();
    driver->Start();
    SingleDiskVolume volume(sched.get(), &metrics, "v0", driver.get());
    LfsLayout layout(sched.get(), BlockDev(&volume, 4096), RealConfig(),
                     MakeCleanerPolicy("greedy"));
    Status status(ErrorCode::kAborted);
    sched->Spawn("run", [](LfsLayout* l, uint64_t* out_ino, Status* out) -> Task<> {
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
      inode.size = 4096;
      *out = co_await l->WriteInode(inode);
    }(&layout, &ino, &status));
    sched->Run();
    ASSERT_TRUE(status.ok()) << status.ToString();

    // Write one data block with real bytes.
    auto block = std::make_unique<CacheBlock>(sched.get());
    block->id = BlockId{1, ino, 0};
    block->data = payload;
    Status wstatus(ErrorCode::kAborted);
    std::vector<CacheBlock*> ptrs{block.get()};
    sched->Spawn("w", [](LfsLayout* l, uint64_t i, std::vector<CacheBlock*> p,
                         Status* out) -> Task<> {
      *out = co_await l->WriteFileBlocks(i, p);
      if (out->ok()) {
        *out = co_await l->Unmount();
      }
    }(&layout, ino, ptrs, &wstatus));
    sched->Run();
    ASSERT_TRUE(wstatus.ok()) << wstatus.ToString();
  }

  {
    auto sched = Scheduler::CreateVirtual();
    MetricRegistry metrics(1, "pfs");
    auto driver =
        std::move(FileBackedDriver::Create(sched.get(), &metrics, "d0", path_, 4 * kMiB,
                                           &executor))
            .value();
    driver->Start();
    SingleDiskVolume volume(sched.get(), &metrics, "v0", driver.get());
    LfsLayout layout(sched.get(), BlockDev(&volume, 4096), RealConfig(),
                     MakeCleanerPolicy("greedy"));
    Status status(ErrorCode::kAborted);
    std::vector<std::byte> read_back(4096);
    Inode inode;
    sched->Spawn("run", [](LfsLayout* l, uint64_t i, std::span<std::byte> out_data,
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
      *out = co_await l->ReadFileBlock(i, 0, out_data);
    }(&layout, ino, read_back, &inode, &status));
    sched->Run();
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(inode.size, 4096u);
    EXPECT_EQ(inode.type, FileType::kRegular);
    EXPECT_EQ(read_back, payload);
  }
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
    volume = std::make_unique<SingleDiskVolume>(sched.get(), &metrics, "v0",
                                                driver.get(), 0,
                                                512 * (4096 / driver->sector_bytes()));
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
    volume = std::make_unique<SingleDiskVolume>(sched.get(), &metrics, "v0",
                                                driver.get(), 0,
                                                512 * (4096 / driver->sector_bytes()));
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
