// Integration tests: fs/ + client/ over the full simulated stack
// (LFS layout, buffer cache, simulated driver/disk/bus, virtual clock).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bus/scsi_bus.h"
#include "cache/data_mover.h"
#include "client/local_client.h"
#include "disk/disk_model.h"
#include "driver/sim_disk_driver.h"
#include "fs/file_system.h"
#include "fs/multimedia_file.h"
#include "layout/inode.h"
#include "layout/lfs_layout.h"
#include "sched/scheduler.h"
#include "volume/volume.h"

namespace pfs {
namespace {

// One simulated file server: HP97560-class synthetic disk, LFS, shared cache.
struct ServerFixture {
  explicit ServerFixture(std::unique_ptr<FlushPolicy> flush_policy =
                             std::make_unique<UpsPolicy>()) {
    sched = Scheduler::CreateVirtual(23);
    ScsiBus::Params bus_params;
    bus_params.arbitration_delay = Duration();
    bus = std::make_unique<ScsiBus>(sched.get(), "scsi0", bus_params);
    disk = std::make_unique<DiskModel>(sched.get(), "d0", DiskParams::SyntheticTest(),
                                       bus.get());
    disk->Start();
    driver = std::make_unique<SimDiskDriver>(sched.get(), &metrics, "d0", disk.get(),
                                             bus.get());
    driver->Start();

    LfsConfig lfs_config;
    lfs_config.fs_id = 1;
    lfs_config.segment_blocks = 16;
    lfs_config.max_inodes = 256;
    lfs_config.enable_cleaner = true;
    volume = std::make_unique<SingleDiskVolume>(
        sched.get(), &metrics, "v0",
        VolumeSliceRef(driver.get(), 0, 512 * (4096 / driver->sector_bytes())));
    layout = std::make_unique<LfsLayout>(sched.get(), BlockDev(volume.get(), 4096),
                                         lfs_config, MakeCleanerPolicy("greedy"));

    BufferCache::Config cache_config;
    cache_config.capacity_bytes = 32 * 4096;
    cache = std::make_unique<BufferCache>(sched.get(), &metrics, cache_config,
                                          std::make_unique<LruReplacement>(),
                                          std::move(flush_policy));
    mover = std::make_unique<SimDataMover>(sched.get(), HostModel{});
    fs = std::make_unique<FileSystem>(sched.get(), layout.get(), cache.get(), mover.get());
    client = std::make_unique<LocalClient>(sched.get(), &metrics);
    client->AddMount("fs0", fs.get());

    Status format(ErrorCode::kAborted);
    sched->Spawn("fmt", [](LfsLayout* l, Status* out) -> Task<> {
      *out = co_await l->Format();
    }(layout.get(), &format));
    sched->Run();
    PFS_CHECK(format.ok());
    cache->Start();
    layout->Start();
  }

  // Runs a client script to completion on the scheduler.
  template <typename Fn>
  Status RunScript(Fn&& fn) {
    Status result(ErrorCode::kAborted);
    sched->Spawn("script", fn(client.get(), &result));
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
  std::unique_ptr<BufferCache> cache;
  std::unique_ptr<SimDataMover> mover;
  std::unique_ptr<FileSystem> fs;
  std::unique_ptr<LocalClient> client;
};

TEST(ClientTest, CreateWriteReadRoundTrip) {
  ServerFixture f;
  const Status s = f.RunScript([](LocalClient* c, Status* out) -> Task<> {
    OpenOptions create;
    create.create = true;
    auto fd_or = co_await c->Open("/fs0/hello.txt", create);
    if (!fd_or.ok()) {
      *out = fd_or.status();
      co_return;
    }
    const Fd fd = *fd_or;
    auto wrote = co_await c->Write(fd, 0, 10000, {});
    PFS_CHECK(wrote.ok() && *wrote == 10000);
    auto attrs = co_await c->FStat(fd);
    PFS_CHECK(attrs.ok() && attrs->size == 10000);
    auto read = co_await c->Read(fd, 0, 20000, {});
    PFS_CHECK(read.ok() && *read == 10000);  // clamped at EOF
    *out = co_await c->Close(fd);
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(ClientTest, OpenMissingWithoutCreateFails) {
  ServerFixture f;
  const Status s = f.RunScript([](LocalClient* c, Status* out) -> Task<> {
    auto fd_or = co_await c->Open("/fs0/nope", OpenOptions{});
    *out = fd_or.status();
  });
  EXPECT_EQ(s.code(), ErrorCode::kNotFound);
}

TEST(ClientTest, DirectoryTreeAndReadDir) {
  ServerFixture f;
  const Status s = f.RunScript([](LocalClient* c, Status* out) -> Task<> {
    *out = co_await c->Mkdir("/fs0/a");
    PFS_CHECK(out->ok());
    *out = co_await c->Mkdir("/fs0/a/b");
    PFS_CHECK(out->ok());
    OpenOptions create;
    create.create = true;
    for (const char* name : {"/fs0/a/x", "/fs0/a/y", "/fs0/a/b/z"}) {
      auto fd = co_await c->Open(name, create);
      PFS_CHECK(fd.ok());
      PFS_CHECK((co_await c->Close(*fd)).ok());
    }
    auto list = co_await c->ReadDir("/fs0/a");
    PFS_CHECK(list.ok());
    PFS_CHECK(list->size() == 3);  // b, x, y
    auto stat = co_await c->Stat("/fs0/a/b/z");
    PFS_CHECK(stat.ok() && stat->type == FileType::kRegular);
    *out = OkStatus();
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(ClientTest, UnlinkRemovesAndAbsorbsDirtyData) {
  ServerFixture f;
  const Status s = f.RunScript([](LocalClient* c, Status* out) -> Task<> {
    OpenOptions create;
    create.create = true;
    auto fd = co_await c->Open("/fs0/tmp", create);
    PFS_CHECK(fd.ok());
    auto wrote = co_await c->Write(*fd, 0, 8 * 4096, {});
    PFS_CHECK(wrote.ok());
    PFS_CHECK((co_await c->Close(*fd)).ok());
    *out = co_await c->Unlink("/fs0/tmp");
    PFS_CHECK(out->ok());
    auto stat = co_await c->Stat("/fs0/tmp");
    PFS_CHECK(stat.code() == ErrorCode::kNotFound);
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
  // The UPS policy never flushed; the deleted file's dirty blocks died in
  // memory and no data blocks reached the disk.
  EXPECT_GE(f.cache->absorbed_dirty_blocks(), 8u);
}

TEST(ClientTest, UnlinkWhileOpenDefersDeletion) {
  ServerFixture f;
  const Status s = f.RunScript([](LocalClient* c, Status* out) -> Task<> {
    OpenOptions create;
    create.create = true;
    auto fd = co_await c->Open("/fs0/busy", create);
    PFS_CHECK(fd.ok());
    auto wrote = co_await c->Write(*fd, 0, 4096, {});
    PFS_CHECK(wrote.ok());
    *out = co_await c->Unlink("/fs0/busy");
    PFS_CHECK(out->ok());
    // Gone from the namespace but still usable through the fd.
    auto stat = co_await c->Stat("/fs0/busy");
    PFS_CHECK(stat.code() == ErrorCode::kNotFound);
    auto read = co_await c->Read(*fd, 0, 4096, {});
    PFS_CHECK(read.ok() && *read == 4096);
    *out = co_await c->Close(*fd);  // deletion completes here
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(ClientTest, RmdirOnlyWhenEmpty) {
  ServerFixture f;
  const Status s = f.RunScript([](LocalClient* c, Status* out) -> Task<> {
    PFS_CHECK((co_await c->Mkdir("/fs0/d")).ok());
    OpenOptions create;
    create.create = true;
    auto fd = co_await c->Open("/fs0/d/f", create);
    PFS_CHECK(fd.ok());
    PFS_CHECK((co_await c->Close(*fd)).ok());
    const Status busy = co_await c->Rmdir("/fs0/d");
    PFS_CHECK(busy.code() == ErrorCode::kNotEmpty);
    PFS_CHECK((co_await c->Unlink("/fs0/d/f")).ok());
    *out = co_await c->Rmdir("/fs0/d");
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(ClientTest, RenameMovesBetweenDirectories) {
  ServerFixture f;
  const Status s = f.RunScript([](LocalClient* c, Status* out) -> Task<> {
    PFS_CHECK((co_await c->Mkdir("/fs0/src")).ok());
    PFS_CHECK((co_await c->Mkdir("/fs0/dst")).ok());
    OpenOptions create;
    create.create = true;
    auto fd = co_await c->Open("/fs0/src/file", create);
    PFS_CHECK(fd.ok());
    auto wrote = co_await c->Write(*fd, 0, 100, {});
    PFS_CHECK(wrote.ok());
    PFS_CHECK((co_await c->Close(*fd)).ok());
    *out = co_await c->Rename("/fs0/src/file", "/fs0/dst/file2");
    PFS_CHECK(out->ok());
    auto gone = co_await c->Stat("/fs0/src/file");
    PFS_CHECK(gone.code() == ErrorCode::kNotFound);
    auto stat = co_await c->Stat("/fs0/dst/file2");
    PFS_CHECK(stat.ok() && stat->size == 100);
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
}

// Creates `path` holding `bytes` bytes.
Task<Status> CreateFile(LocalClient* c, const std::string& path, uint64_t bytes) {
  OpenOptions create;
  create.create = true;
  PFS_CO_ASSIGN_OR_RETURN(const Fd fd, co_await c->Open(path, create));
  PFS_CO_RETURN_IF_ERROR((co_await c->Write(fd, 0, bytes, {})).status());
  co_return co_await c->Close(fd);
}

// Unlink, rmdir, and rename (on either side) through a regular file fail
// with kNotDirectory, leave both files intact, and release the file they
// looked through: a later unlink frees its inode at once.
TEST(ClientTest, NamespaceOpsThroughARegularFileReturnNotDirectory) {
  ServerFixture f;
  std::vector<ErrorCode> codes;
  uint64_t a_ino = 0;
  Status a_freed = OkStatus();
  const Status s = f.RunScript([&](LocalClient* c, Status* out) -> Task<> {
    PFS_CHECK((co_await CreateFile(c, "/fs0/a", 100)).ok());
    PFS_CHECK((co_await CreateFile(c, "/fs0/b", 200)).ok());
    codes.push_back((co_await c->Unlink("/fs0/a/x")).code());
    codes.push_back((co_await c->Rmdir("/fs0/a/x")).code());
    codes.push_back((co_await c->Rename("/fs0/a/x", "/fs0/c")).code());
    codes.push_back((co_await c->Rename("/fs0/b", "/fs0/a/x")).code());
    auto a = co_await c->Stat("/fs0/a");
    auto b = co_await c->Stat("/fs0/b");
    PFS_CHECK(a.ok() && a->type == FileType::kRegular && a->size == 100);
    PFS_CHECK(b.ok() && b->type == FileType::kRegular && b->size == 200);
    a_ino = a->ino;
    *out = co_await c->Unlink("/fs0/a");
    a_freed = (co_await f.layout->ReadInode(a_ino)).status();
  });
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(codes, std::vector<ErrorCode>(4, ErrorCode::kNotDirectory));
  EXPECT_FALSE(a_freed.ok()) << "inode " << a_ino << " still allocated after unlink";
}

TEST(ClientTest, RenameOntoItselfIsANoOp) {
  ServerFixture f;
  const Status s = f.RunScript([](LocalClient* c, Status* out) -> Task<> {
    PFS_CHECK((co_await c->Mkdir("/fs0/d")).ok());
    PFS_CHECK((co_await CreateFile(c, "/fs0/d/a", 300)).ok());
    PFS_CHECK((co_await c->Rename("/fs0/d/a", "/fs0/d/a")).ok());
    PFS_CHECK((co_await c->Rename("/fs0/d", "/fs0/d")).ok());
    auto a = co_await c->Stat("/fs0/d/a");
    PFS_CHECK(a.ok() && a->size == 300);
    auto list = co_await c->ReadDir("/fs0/d");
    PFS_CHECK(list.ok() && list->size() == 1);
    *out = OkStatus();
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(ClientTest, RenameOntoADirectoryChangesNothing) {
  ServerFixture f;
  Status rename = OkStatus();
  const Status s = f.RunScript([&rename](LocalClient* c, Status* out) -> Task<> {
    PFS_CHECK((co_await CreateFile(c, "/fs0/a", 400)).ok());
    PFS_CHECK((co_await c->Mkdir("/fs0/d")).ok());
    rename = co_await c->Rename("/fs0/a", "/fs0/d");
    auto a = co_await c->Stat("/fs0/a");
    PFS_CHECK(a.ok() && a->type == FileType::kRegular && a->size == 400);
    auto d = co_await c->Stat("/fs0/d");
    PFS_CHECK(d.ok() && d->type == FileType::kDirectory);
    auto root = co_await c->ReadDir("/fs0");
    PFS_CHECK(root.ok() && root->size() == 2);  // a, d
    auto in_d = co_await c->ReadDir("/fs0/d");
    PFS_CHECK(in_d.ok() && in_d->empty());
    *out = OkStatus();
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(rename.code(), ErrorCode::kExists) << rename.ToString();
}

TEST(ClientTest, RenameReplacesARegularFile) {
  ServerFixture f;
  const Status s = f.RunScript([](LocalClient* c, Status* out) -> Task<> {
    PFS_CHECK((co_await CreateFile(c, "/fs0/a", 500)).ok());
    PFS_CHECK((co_await CreateFile(c, "/fs0/b", 600)).ok());
    *out = co_await c->Rename("/fs0/a", "/fs0/b");
    PFS_CHECK(out->ok());
    auto gone = co_await c->Stat("/fs0/a");
    PFS_CHECK(gone.code() == ErrorCode::kNotFound);
    auto b = co_await c->Stat("/fs0/b");
    PFS_CHECK(b.ok() && b->size == 500);
    auto root = co_await c->ReadDir("/fs0");
    PFS_CHECK(root.ok() && root->size() == 1);
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(ClientTest, TruncateShrinksAndAbsorbs) {
  ServerFixture f;
  const Status s = f.RunScript([](LocalClient* c, Status* out) -> Task<> {
    OpenOptions create;
    create.create = true;
    auto fd = co_await c->Open("/fs0/t", create);
    PFS_CHECK(fd.ok());
    auto wrote = co_await c->Write(*fd, 0, 6 * 4096, {});
    PFS_CHECK(wrote.ok());
    *out = co_await c->Truncate(*fd, 4096);
    PFS_CHECK(out->ok());
    auto attrs = co_await c->FStat(*fd);
    PFS_CHECK(attrs.ok() && attrs->size == 4096);
    *out = co_await c->Close(*fd);
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_GE(f.cache->absorbed_dirty_blocks(), 5u);
}

// A write whose end does not fit in 64 bits, and a truncate past the largest
// file the block map can address, are refused and leave the size alone.
TEST(ClientTest, WritesAndTruncatesPastTheMaximumFileSizeAreOutOfRange) {
  ServerFixture f;
  Status write_past(ErrorCode::kAborted);
  Status truncate_past(ErrorCode::kAborted);
  Status truncate_one_past(ErrorCode::kAborted);
  uint64_t size_after = 0;
  const Status s = f.RunScript([&](LocalClient* c, Status* out) -> Task<> {
    OpenOptions create;
    create.create = true;
    auto fd = co_await c->Open("/fs0/big", create);
    PFS_CHECK(fd.ok());
    PFS_CHECK((co_await c->Write(*fd, 0, 4096, {})).ok());
    write_past = (co_await c->Write(*fd, UINT64_MAX - 100, 200, {})).status();
    truncate_past = co_await c->Truncate(*fd, UINT64_MAX);
    truncate_one_past = co_await c->Truncate(*fd, Inode::MaxFileSize(4096) + 1);
    auto attrs = co_await c->FStat(*fd);
    PFS_CHECK(attrs.ok());
    size_after = attrs->size;
    *out = co_await c->Close(*fd);
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(write_past.code(), ErrorCode::kOutOfRange) << write_past.ToString();
  EXPECT_EQ(truncate_past.code(), ErrorCode::kOutOfRange) << truncate_past.ToString();
  EXPECT_EQ(truncate_one_past.code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(size_after, 4096u);
}

TEST(ClientTest, SymlinkRoundTrip) {
  ServerFixture f;
  const Status s = f.RunScript([](LocalClient* c, Status* out) -> Task<> {
    *out = co_await c->SymlinkAt("/fs0/link", "/fs0/target/path");
    PFS_CHECK(out->ok());
    auto target = co_await c->ReadLink("/fs0/link");
    PFS_CHECK(target.ok());
    PFS_CHECK(*target == "/fs0/target/path");
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(ClientTest, MultimediaFilePreloadsAndStaysActive) {
  ServerFixture f;
  const Status s = f.RunScript([](LocalClient* c, Status* out) -> Task<> {
    OpenOptions create;
    create.create = true;
    create.create_type = FileType::kMultimedia;
    auto fd = co_await c->Open("/fs0/movie", create);
    PFS_CHECK(fd.ok());
    auto wrote = co_await c->Write(*fd, 0, 20 * 4096, {});
    PFS_CHECK(wrote.ok());
    PFS_CHECK((co_await c->Close(*fd)).ok());

    // Stream it back: reopen and read sequentially; the active thread
    // pre-loads ahead of the consumer.
    auto fd2 = co_await c->Open("/fs0/movie", OpenOptions{});
    PFS_CHECK(fd2.ok());
    for (int i = 0; i < 10; ++i) {
      auto read = co_await c->Read(*fd2, static_cast<uint64_t>(i) * 4096, 4096, {});
      PFS_CHECK(read.ok() && *read == 4096);
    }
    *out = co_await c->Close(*fd2);
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(ClientTest, SyncAllFlushesEverything) {
  ServerFixture f;
  const Status s = f.RunScript([](LocalClient* c, Status* out) -> Task<> {
    OpenOptions create;
    create.create = true;
    for (const char* name : {"/fs0/s1", "/fs0/s2"}) {
      auto fd = co_await c->Open(name, create);
      PFS_CHECK(fd.ok());
      auto wrote = co_await c->Write(*fd, 0, 3 * 4096, {});
      PFS_CHECK(wrote.ok());
      PFS_CHECK((co_await c->Close(*fd)).ok());
    }
    *out = co_await c->SyncAll();
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(f.cache->dirty_count(), 0u);
  EXPECT_GT(f.layout->log_blocks_written(), 6u);
}

TEST(ClientTest, CacheHitsAreFastMissesPayDiskTime) {
  ServerFixture f;
  Duration cold;
  Duration warm;
  Status s(ErrorCode::kAborted);
  f.sched->Spawn("timing", [](ServerFixture* fx, Duration* cold_out, Duration* warm_out,
                              Status* out) -> Task<> {
    LocalClient* c = fx->client.get();
    OpenOptions create;
    create.create = true;
    auto fd = co_await c->Open("/fs0/data", create);
    PFS_CHECK(fd.ok());
    auto wrote = co_await c->Write(*fd, 0, 4096, {});
    PFS_CHECK(wrote.ok());
    // Force the block out to disk and out of the cache.
    PFS_CHECK((co_await c->SyncAll()).ok());
    fx->cache->InvalidateFile(1, (co_await c->FStat(*fd))->ino);

    TimePoint t0 = fx->sched->Now();
    auto r1 = co_await c->Read(*fd, 0, 4096, {});
    PFS_CHECK(r1.ok());
    *cold_out = fx->sched->Now() - t0;

    t0 = fx->sched->Now();
    auto r2 = co_await c->Read(*fd, 0, 4096, {});
    PFS_CHECK(r2.ok());
    *warm_out = fx->sched->Now() - t0;
    *out = co_await c->Close(*fd);
  }(&f, &cold, &warm, &s));
  f.sched->Run();
  ASSERT_TRUE(s.ok()) << s.ToString();
  // Warm read: CPU + copy only (sub-millisecond). Cold read: disk latency.
  EXPECT_LT(warm, Duration::Millis(1));
  EXPECT_GT(cold, Duration::Millis(1));
}

// Every fd call a bad fd can reach, as one status: the first that is not
// kInvalidArgument, or ok when all six were.
Task<Status> EveryFdCallRejects(LocalClient* c, Fd fd) {
  Status statuses[6];
  statuses[0] = (co_await c->Read(fd, 0, 4096, {})).status();
  statuses[1] = (co_await c->Write(fd, 0, 4096, {})).status();
  statuses[2] = co_await c->Truncate(fd, 0);
  statuses[3] = co_await c->Fsync(fd);
  statuses[4] = (co_await c->FStat(fd)).status();
  statuses[5] = co_await c->Close(fd);
  for (const Status& status : statuses) {
    if (status.code() != ErrorCode::kInvalidArgument) {
      co_return Status(ErrorCode::kCorrupt, "fd " + std::to_string(fd) + ": " +
                                                 status.ToString());
    }
  }
  co_return OkStatus();
}

TEST(ClientTest, BadFdsAreInvalidAndLeaveTheClientWorking) {
  // A registry of two shards gives the client two fd tables; fs0 lives on
  // shard 0, so an fd that names shard 1 names a table with no mount.
  ServerFixture f;
  MetricRegistry two_shards(2, "pfs");
  LocalClient client(f.sched.get(), &two_shards);
  client.AddMount("fs0", f.fs.get());
  Status s(ErrorCode::kAborted);
  f.sched->Spawn("bad-fds", [](LocalClient* c, Status* out) -> Task<> {
    OpenOptions create;
    create.create = true;
    auto good = co_await c->Open("/fs0/good", create);
    PFS_CHECK(good.ok());
    PFS_CHECK((co_await c->Write(*good, 0, 4096, {})).ok());
    auto closed = co_await c->Open("/fs0/good", OpenOptions{});
    PFS_CHECK(closed.ok());
    PFS_CHECK((co_await c->Close(*closed)).ok());
    // Below 3; never issued (shard 0's slot 100); closed; naming shard 1.
    const Fd bad[] = {-1, 0, 1, 2, *good + 2 * 100, *closed, *good + 1};
    for (const Fd fd : bad) {
      *out = co_await EveryFdCallRejects(c, fd);
      if (!out->ok()) {
        co_return;
      }
      // The good fd still works after each.
      auto read = co_await c->Read(*good, 0, 4096, {});
      PFS_CHECK(read.ok() && *read == 4096);
    }
    *out = co_await c->Close(*good);
  }(&client, &s));
  f.sched->Run();
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(ClientTest, AClosedFdsSlotIsReused) {
  ServerFixture f;
  std::vector<Fd> fds;
  Status s(ErrorCode::kAborted);
  f.sched->Spawn("churn", [](LocalClient* c, std::vector<Fd>* out_fds, Status* out) -> Task<> {
    OpenOptions create;
    create.create = true;
    for (int i = 0; i < 10000; ++i) {
      auto fd = co_await c->Open("/fs0/churn", create);
      if (!fd.ok()) {
        *out = fd.status();
        co_return;
      }
      out_fds->push_back(*fd);
      *out = co_await c->Close(*fd);
      if (!out->ok()) {
        co_return;
      }
    }
  }(f.client.get(), &fds, &s));
  f.sched->Run();
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(fds.size(), 10000u);
  EXPECT_EQ(std::count(fds.begin(), fds.end(), fds[0]), 10000);
}

}  // namespace

class LocalClientTestPeer {
 public:
  static std::optional<Fd> EncodeFd(size_t slot, size_t shard, size_t shards) {
    return LocalClient::EncodeFd(slot, shard, shards);
  }
};

namespace {

TEST(ClientTest, FdsPastTheLargestFdAreNotIssued) {
  constexpr Fd kMax = std::numeric_limits<Fd>::max();
  // One shard: slot s is fd 3 + s.
  EXPECT_EQ(LocalClientTestPeer::EncodeFd(0, 0, 1), 3);
  EXPECT_EQ(LocalClientTestPeer::EncodeFd(kMax - 3, 0, 1), kMax);
  EXPECT_EQ(LocalClientTestPeer::EncodeFd(size_t{kMax} - 2, 0, 1), std::nullopt);
  // Four shards: shard 3's last slot is the largest fd that fits.
  const size_t last = (size_t{kMax} - 3 - 3) / 4;
  EXPECT_EQ(LocalClientTestPeer::EncodeFd(last, 3, 4), static_cast<Fd>(3 + last * 4 + 3));
  EXPECT_EQ(LocalClientTestPeer::EncodeFd(last + 1, 3, 4), std::nullopt);
  EXPECT_EQ(LocalClientTestPeer::EncodeFd(last + 1, 0, 4), static_cast<Fd>(3 + (last + 1) * 4));
}

}  // namespace
}  // namespace pfs
