// Tests for the shared assembly layer: one SystemConfig instantiates both
// the simulated stack and the file-backed stack, the same workload produces
// identical logical results on each, and invalid descriptions are rejected
// with a clear Status instead of divergent per-server parsing.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "client/client_interface.h"
#include "obs/trace.h"
#include "online/pfs_server.h"
#include "system/system_builder.h"

namespace pfs {
namespace {

// What a workload leaves behind, as the client sees it: directory listing,
// file sizes, operation successes. Identical across backends by design.
struct WorkloadResult {
  std::vector<std::string> entries;
  std::vector<uint64_t> sizes;
  uint64_t ops_ok = 0;
};

Task<Status> RunWorkload(ClientInterface* c, WorkloadResult* out) {
  OpenOptions create;
  create.create = true;
  PFS_CO_RETURN_IF_ERROR(co_await c->Mkdir("/fs0/dir"));
  ++out->ops_ok;
  for (int i = 0; i < 6; ++i) {
    auto fd = co_await c->Open("/fs0/dir/f" + std::to_string(i), create);
    PFS_CO_RETURN_IF_ERROR(fd.status());
    const uint64_t bytes = 1024 + static_cast<uint64_t>(i) * 3000;
    auto wrote = co_await c->Write(*fd, 0, bytes, {});
    PFS_CO_RETURN_IF_ERROR(wrote.status());
    auto read = co_await c->Read(*fd, 0, bytes / 2, {});
    PFS_CO_RETURN_IF_ERROR(read.status());
    PFS_CO_RETURN_IF_ERROR(co_await c->Close(*fd));
    ++out->ops_ok;
  }
  // Churn: delete one file, rename another, and use the second mount.
  PFS_CO_RETURN_IF_ERROR(co_await c->Unlink("/fs0/dir/f0"));
  ++out->ops_ok;
  PFS_CO_RETURN_IF_ERROR(co_await c->Rename("/fs0/dir/f1", "/fs0/dir/g1"));
  ++out->ops_ok;
  {
    auto fd = co_await c->Open("/fs1/other", create);
    PFS_CO_RETURN_IF_ERROR(fd.status());
    auto wrote = co_await c->Write(*fd, 0, 8192, {});
    PFS_CO_RETURN_IF_ERROR(wrote.status());
    PFS_CO_RETURN_IF_ERROR(co_await c->Close(*fd));
    ++out->ops_ok;
  }
  auto entries = co_await c->ReadDir("/fs0/dir");
  PFS_CO_RETURN_IF_ERROR(entries.status());
  for (const DirEntry& e : *entries) {
    out->entries.push_back(e.name);
    auto attrs = co_await c->Stat("/fs0/dir/" + e.name);
    PFS_CO_RETURN_IF_ERROR(attrs.status());
    out->sizes.push_back(attrs->size);
  }
  std::vector<size_t> order(out->entries.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return out->entries[a] < out->entries[b];
  });
  WorkloadResult sorted;
  for (size_t i : order) {
    sorted.entries.push_back(out->entries[i]);
    sorted.sizes.push_back(out->sizes[i]);
  }
  out->entries = std::move(sorted.entries);
  out->sizes = std::move(sorted.sizes);
  co_return co_await c->SyncAll();
}

// Two disks, two LFS file systems — enough topology to exercise the
// round-robin partitioner in both backends.
SystemConfig SmallConfig() {
  SystemConfig config;
  config.disks_per_bus = {2};
  config.num_filesystems = 2;
  config.cache_bytes = 2 * kMiB;
  config.lfs_segment_blocks = 64;
  config.max_inodes = 1024;
  config.flush_policy = "ups";
  config.image_bytes = 8 * kMiB;
  return config;
}

// PFS_TEST_SHARDS re-runs the plain-topology suites on a sharded scheduler
// (CI sets it to 4 for a second ctest pass). Configs with explicit volume
// specs keep their own shard count: mirrors must stay shard-local, which a
// blanket override could violate.
int EnvShards() {
  const char* env = std::getenv("PFS_TEST_SHARDS");
  if (env == nullptr) {
    return 1;
  }
  const int n = std::atoi(env);
  return n >= 1 ? n : 1;
}

Result<WorkloadResult> RunOn(const SystemConfig& config, bool coalesce = true) {
  SystemConfig cfg = config;
  if (cfg.volumes.empty() && cfg.shards == 1) {
    cfg.shards = EnvShards();
  }
  PFS_ASSIGN_OR_RETURN(std::unique_ptr<System> system, SystemBuilder::Build(cfg));
  PFS_RETURN_IF_ERROR(system->Setup());
  for (int i = 0; i < cfg.num_filesystems; ++i) {
    system->volume(i)->set_coalesce(coalesce);
  }
  WorkloadResult result;
  Status status(ErrorCode::kAborted);
  system->scheduler()->Spawn("test.workload",
                             [](System* sys, WorkloadResult* out, Status* st) -> Task<> {
                               *st = co_await RunWorkload(sys->client(), out);
                             }(system.get(), &result, &status));
  system->RunToCompletion();
  PFS_RETURN_IF_ERROR(status);
  return result;
}

// Like RunOn, but also captures the registry's JSON report so sharded runs
// can be compared byte-for-byte.
struct RunReport {
  WorkloadResult result;
  std::string stats_json;
};

Result<RunReport> RunReported(const SystemConfig& config) {
  PFS_ASSIGN_OR_RETURN(std::unique_ptr<System> system, SystemBuilder::Build(config));
  PFS_RETURN_IF_ERROR(system->Setup());
  RunReport report;
  Status status(ErrorCode::kAborted);
  system->scheduler()->Spawn("test.workload",
                             [](System* sys, WorkloadResult* out, Status* st) -> Task<> {
                               *st = co_await RunWorkload(sys->client(), out);
                             }(system.get(), &report.result, &status));
  system->RunToCompletion();
  PFS_RETURN_IF_ERROR(status);
  report.stats_json = system->stats().ReportJson();
  return report;
}

class SystemTest : public ::testing::Test {
 protected:
  void SetUp() override {
    image_ = testing::TempDir() + "/pfs_system_test.img";
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

TEST_F(SystemTest, SameConfigSameResultsOnBothBackends) {
  SystemConfig config = SmallConfig();
  config.image_path = image_;

  config.backend = BackendKind::kSimulated;
  auto sim = RunOn(config);
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();

  config.backend = BackendKind::kFileBacked;
  auto real = RunOn(config);
  ASSERT_TRUE(real.ok()) << real.status().ToString();

  EXPECT_EQ(sim->entries, real->entries);
  EXPECT_EQ(sim->sizes, real->sizes);
  EXPECT_EQ(sim->ops_ok, real->ops_ok);
  EXPECT_EQ(sim->entries,
            (std::vector<std::string>{"f2", "f3", "f4", "f5", "g1"}));
}

TEST_F(SystemTest, StripedAndMirroredVolumesSameResultsOnBothBackends) {
  // fs0 striped over both disks, fs1 mirrored over both: the workload's
  // logical results must not depend on the backend — the volume layer is
  // below the cache, so the same splitting code runs in both stacks — nor
  // on whether the file-backed volumes coalesce fragments into batches.
  SystemConfig config = SmallConfig();
  config.image_path = image_;
  config.image_bytes = 16 * kMiB;
  VolumeSpec striped;
  striped.kind = "striped";
  striped.members = {0, 1};
  striped.stripe_unit_kb = 16;
  VolumeSpec mirror;
  mirror.kind = "mirror";
  mirror.members = {0, 1};
  config.volumes = {striped, mirror};

  config.backend = BackendKind::kSimulated;
  auto sim = RunOn(config);
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();

  config.backend = BackendKind::kFileBacked;
  auto real = RunOn(config);
  ASSERT_TRUE(real.ok()) << real.status().ToString();
  auto uncoalesced = RunOn(config, /*coalesce=*/false);
  ASSERT_TRUE(uncoalesced.ok()) << uncoalesced.status().ToString();

  EXPECT_EQ(sim->entries, real->entries);
  EXPECT_EQ(sim->sizes, real->sizes);
  EXPECT_EQ(sim->ops_ok, real->ops_ok);
  EXPECT_EQ(sim->entries, (std::vector<std::string>{"f2", "f3", "f4", "f5", "g1"}));
  EXPECT_EQ(real->entries, uncoalesced->entries);
  EXPECT_EQ(real->sizes, uncoalesced->sizes);
  EXPECT_EQ(real->ops_ok, uncoalesced->ops_ok);
}

// One-file-system striped system over both disks (16 KiB units).
SystemConfig StripedConfig() {
  SystemConfig config = SmallConfig();
  config.backend = BackendKind::kSimulated;
  config.num_filesystems = 1;
  VolumeSpec striped;
  striped.kind = "striped";
  striped.members = {0, 1};
  striped.stripe_unit_kb = 16;
  config.volumes = {striped};
  return config;
}

TEST_F(SystemTest, StripedVolumeFansOutOverTheMembers) {
  auto system_or = SystemBuilder::Build(StripedConfig());
  ASSERT_TRUE(system_or.ok()) << system_or.status().ToString();
  std::unique_ptr<System> system = std::move(system_or).value();
  ASSERT_TRUE(system->Setup().ok());
  Status status(ErrorCode::kAborted);
  system->scheduler()->Spawn("wl", [](System* sys, Status* st) -> Task<> {
    OpenOptions create;
    create.create = true;
    auto fd = co_await sys->client()->Open("/fs0/big", create);
    if (!fd.ok()) {
      *st = fd.status();
      co_return;
    }
    auto wrote = co_await sys->client()->Write(*fd, 0, 2 * kMiB, {});
    if (!wrote.ok()) {
      *st = wrote.status();
      co_return;
    }
    *st = co_await sys->client()->Close(*fd);
    if (st->ok()) {
      *st = co_await sys->client()->SyncAll();
    }
  }(system.get(), &status));
  system->scheduler()->Run();
  ASSERT_TRUE(status.ok()) << status.ToString();

  // The LFS segment writes were split across both member disks.
  Volume* volume = system->volume(0);
  EXPECT_STREQ(volume->kind(), "striped");
  EXPECT_GT(volume->member_writes(0), 0u);
  EXPECT_GT(volume->member_writes(1), 0u);
  EXPECT_GT(system->drivers()[0]->ops_completed(), 0u);
  EXPECT_GT(system->drivers()[1]->ops_completed(), 0u);
  // And the volume reports as a stat source in the registry.
  const std::string section = "== volume.fs0 ==\n" + volume->StatJson() + "\n";
  EXPECT_NE(system->stats().ReportAll().find(section), std::string::npos);
}

TEST_F(SystemTest, StripedReadTracesOneRequestAndOneFragmentPerMember) {
  // A composite volume's members are its slices: the fragments it fans out
  // reach the drivers directly, so one read of two stripe units is one
  // volume.request span and one volume.fragment span per member, with no
  // nested per-member request.
  SystemConfig config = StripedConfig();
  config.trace.enabled = true;
  auto system_or = SystemBuilder::Build(config);
  ASSERT_TRUE(system_or.ok()) << system_or.status().ToString();
  std::unique_ptr<System> system = std::move(system_or).value();
  ASSERT_TRUE(system->Setup().ok());
  Status status(ErrorCode::kAborted);
  uint64_t trace_id = 0;
  system->scheduler()->Spawn("traced-read", [](System* sys, Status* st,
                                               uint64_t* id) -> Task<> {
    Thread* self = sys->scheduler()->current_thread();
    self->trace = sys->tracer()->StartTrace();
    *id = self->trace.id;
    Volume* volume = sys->volume(0);
    const uint32_t unit = 16 * kKiB / volume->sector_bytes();
    *st = co_await volume->Read(0, 2 * unit, {});
    self->trace = TraceContext{};
  }(system.get(), &status, &trace_id));
  system->scheduler()->Run();
  ASSERT_TRUE(status.ok()) << status.ToString();

  size_t requests = 0;
  size_t fragments = 0;
  for (const TraceSpan& span : system->tracer()->Spans()) {
    if (span.trace_id != trace_id) {
      continue;
    }
    requests += span.stage == TraceStage::kVolume ? 1 : 0;
    fragments += span.stage == TraceStage::kFragment ? 1 : 0;
  }
  EXPECT_EQ(requests, 1u);
  EXPECT_EQ(fragments, 2u);
}

TEST_F(SystemTest, StripedVolumeRegistersNoPerMemberVolumes) {
  // The striped volume is the only volume over its slices: its metrics
  // carry its own name and no "<fs>.m<j>" series exists.
  auto system_or = SystemBuilder::Build(StripedConfig());
  ASSERT_TRUE(system_or.ok()) << system_or.status().ToString();
  const std::string text = (*system_or)->metrics()->PrometheusText();
  EXPECT_NE(text.find("volume=\"fs0\""), std::string::npos);
  EXPECT_EQ(text.find("volume=\"fs0.m"), std::string::npos);
}

TEST_F(SystemTest, FileBackedStacksAllThreeLayouts) {
  for (const char* layout : {"lfs", "ffs", "guessing"}) {
    SystemConfig config = SmallConfig();
    config.image_path = image_;
    config.backend = BackendKind::kFileBacked;
    config.layout = layout;
    config.image_bytes = 16 * kMiB;  // one FFS cylinder group per partition
    auto result = RunOn(config);
    ASSERT_TRUE(result.ok()) << layout << ": " << result.status().ToString();
    EXPECT_EQ(result->ops_ok, 10u) << layout;
    TearDown();  // fresh images per layout
  }
}

TEST_F(SystemTest, OnlineServerRunsMultiDiskFfsTopology) {
  PfsServerConfig config;
  config.image_path = image_;
  config.image_bytes = 16 * kMiB;
  config.disks_per_bus = {2};
  config.num_filesystems = 2;
  config.layout = "ffs";
  auto server_or = PfsServer::Start(config);
  ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();
  auto server = std::move(server_or).value();
  ASSERT_EQ(server->filesystem_count(), 2);
  EXPECT_STREQ(server->layout(0)->layout_name(), "ffs");
  EXPECT_STREQ(server->layout(1)->layout_name(), "ffs");
  const Status status = server->Submit([](ClientInterface* c) -> Task<Status> {
    OpenOptions create;
    create.create = true;
    for (const char* path : {"/fs0/a", "/fs1/b"}) {
      auto fd = co_await c->Open(path, create);
      PFS_CO_RETURN_IF_ERROR(fd.status());
      std::vector<std::byte> data(4096, std::byte{0x5a});
      auto wrote = co_await c->Write(*fd, 0, data.size(), data);
      PFS_CO_RETURN_IF_ERROR(wrote.status());
      std::vector<std::byte> back(4096);
      auto read = co_await c->Read(*fd, 0, back.size(), back);
      PFS_CO_RETURN_IF_ERROR(read.status());
      if (back != data) {
        co_return Status(ErrorCode::kCorrupt, "read-back mismatch");
      }
      PFS_CO_RETURN_IF_ERROR(co_await c->Close(*fd));
    }
    co_return OkStatus();
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(server->Stop().ok());
}

// A write larger than an async-flushed cache returns. The writer fills the
// 16 blocks and signals the flusher, possibly before the flusher daemon's
// first step; an Event signal with no waiter is lost, so the flusher decides
// by the free and clean counts, not by the wakeup. A watchdog stops the
// loop, so a lost wakeup fails the test instead of hanging it; it is an OS
// thread, since one more coroutine would change the scheduler's random
// picks. The system is destroyed as soon as the run returns, while the
// flusher's last batch may still be in flight: under ASan that checks the
// batch cannot complete into a freed driver.
TEST_F(SystemTest, AsyncFlushedWriteLargerThanTheCacheReturns) {
  SystemConfig config = SystemConfig::OnlineDefaults();
  config.image_path = image_;
  config.cache_bytes = 16 * kDefaultBlockSize;
  config.flush_policy = "ups";
  config.async_flush = true;
  auto built = SystemBuilder::Build(config);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  System& sys = **built;
  ASSERT_TRUE(sys.Setup().ok());

  constexpr uint64_t kBytes = 64 * kDefaultBlockSize;
  Result<uint64_t> wrote = Status(ErrorCode::kAborted);
  sys.scheduler()->Spawn("test.writer", [](System* s, Result<uint64_t>* out) -> Task<> {
    OpenOptions create;
    create.create = true;
    auto fd = co_await s->client()->Open("/fs0/big", create);
    if (!fd.ok()) {
      *out = fd.status();
      co_return;
    }
    *out = co_await s->client()->Write(*fd, 0, kBytes, {});
  }(&sys, &wrote));
  std::mutex mu;
  std::condition_variable cv;
  System* running = &sys;  // guarded by mu; null once the run has returned
  bool stopped = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(mu);
    const auto returned = [&] { return running == nullptr; };
    if (!cv.wait_for(lock, std::chrono::seconds(10), returned)) {
      stopped = true;
      running->RequestStop();
    }
  });
  sys.RunToCompletion();
  {
    std::lock_guard<std::mutex> lock(mu);
    running = nullptr;
  }
  cv.notify_one();
  built->reset();
  watchdog.join();

  EXPECT_FALSE(stopped) << "the write hung: the flusher missed its wakeup";
  ASSERT_TRUE(wrote.ok()) << wrote.status().ToString();
  EXPECT_EQ(*wrote, kBytes);
}

// A cache block handed out for an overwrite keeps nothing of its previous
// owner. The cache holds four blocks, so once /fs0/a's 16 KiB of 0xAA is on
// disk, every block a new file writes is a recycled block of /fs0/a. The
// bytes a write past EOF does not cover read as zeroes, and a write with an
// empty buffer (the NFS front end's WRITE) writes zeroes.
TEST_F(SystemTest, OverwrittenBlocksHoldNoBytesOfTheirPreviousFile) {
  PfsServerConfig config;
  config.image_path = image_;
  config.image_bytes = 16 * kMiB;
  config.cache_bytes = 16 * kKiB;
  auto server_or = PfsServer::Start(config);
  ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();
  auto server = std::move(server_or).value();
  std::vector<std::byte> partial(110, std::byte{0x55});
  std::vector<std::byte> empty_write(4096, std::byte{0x55});
  const Status status = server->Submit([&](ClientInterface* c) -> Task<Status> {
    OpenOptions create;
    create.create = true;
    auto a = co_await c->Open("/fs0/a", create);
    PFS_CO_RETURN_IF_ERROR(a.status());
    const std::vector<std::byte> old_bytes(16 * kKiB, std::byte{0xAA});
    auto n = co_await c->Write(*a, 0, old_bytes.size(), old_bytes);
    PFS_CO_RETURN_IF_ERROR(n.status());
    PFS_CO_RETURN_IF_ERROR(co_await c->Fsync(*a));

    // Ten bytes at offset 100 of a new file: the block lies wholly past EOF.
    auto b = co_await c->Open("/fs0/b", create);
    PFS_CO_RETURN_IF_ERROR(b.status());
    const std::vector<std::byte> ten(10, std::byte{0x11});
    n = co_await c->Write(*b, 100, ten.size(), ten);
    PFS_CO_RETURN_IF_ERROR(n.status());
    n = co_await c->Read(*b, 0, partial.size(), partial);
    PFS_CO_RETURN_IF_ERROR(n.status());
    PFS_CO_RETURN_IF_ERROR(co_await c->Close(*b));

    // A whole block written from an empty buffer.
    auto e = co_await c->Open("/fs0/e", create);
    PFS_CO_RETURN_IF_ERROR(e.status());
    n = co_await c->Write(*e, 0, empty_write.size(), {});
    PFS_CO_RETURN_IF_ERROR(n.status());
    n = co_await c->Read(*e, 0, empty_write.size(), empty_write);
    PFS_CO_RETURN_IF_ERROR(n.status());
    co_return co_await c->Close(*e);
  });
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(server->Stop().ok());
  EXPECT_EQ(std::count(partial.begin(), partial.begin() + 100, std::byte{0}), 100);
  EXPECT_EQ(std::count(partial.begin() + 100, partial.end(), std::byte{0x11}), 10);
  EXPECT_EQ(std::count(empty_write.begin(), empty_write.end(), std::byte{0}), 4096);
}

// -- Sharded scheduler: determinism and backend equivalence ----------------

TEST_F(SystemTest, ShardedRunsAreDeterministic) {
  // Four shards in virtual-clock lockstep: two runs of the same seed produce
  // byte-identical stats reports, including the per-shard sched sources.
  SystemConfig config = SmallConfig();
  config.backend = BackendKind::kSimulated;
  config.disks_per_bus = {2, 2};
  config.num_filesystems = 4;
  config.shards = 4;

  auto a = RunReported(config);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  auto b = RunReported(config);
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  EXPECT_EQ(a->result.entries, b->result.entries);
  EXPECT_EQ(a->result.sizes, b->result.sizes);
  EXPECT_EQ(a->result.ops_ok, b->result.ops_ok);
  EXPECT_EQ(a->stats_json, b->stats_json);
  EXPECT_NE(a->stats_json.find("sched.shard0"), std::string::npos);
  EXPECT_NE(a->stats_json.find("sched.shard3"), std::string::npos);
  EXPECT_NE(a->stats_json.find("mailbox_depth"), std::string::npos);
}

TEST_F(SystemTest, ShardedStripedAndMirroredAcrossShardCounts) {
  // The shard count is a performance knob, not a semantic one: striped fs0 on
  // shard 0 and mirrored fs1 on another shard produce the same logical
  // results at shards = 1, 2, 4 on both backends. The mirror's members are
  // kept shard-local (disks 2 and 3 are only referenced by fs1), as the
  // validator requires.
  std::vector<WorkloadResult> results;
  for (int shards : {1, 2, 4}) {
    for (BackendKind backend : {BackendKind::kSimulated, BackendKind::kFileBacked}) {
      SystemConfig config = SmallConfig();
      config.image_path = image_;
      config.image_bytes = 16 * kMiB;
      config.disks_per_bus = {2, 2};
      config.shards = shards;
      config.fs_shards = {0, std::min(1, shards - 1)};
      VolumeSpec striped;
      striped.kind = "striped";
      striped.members = {0, 1};
      striped.stripe_unit_kb = 16;
      VolumeSpec mirror;
      mirror.kind = "mirror";
      mirror.members = {2, 3};
      config.volumes = {striped, mirror};
      config.backend = backend;
      auto r = RunOn(config);
      ASSERT_TRUE(r.ok()) << "shards=" << shards << " backend="
                          << (backend == BackendKind::kSimulated ? "sim" : "file") << ": "
                          << r.status().ToString();
      results.push_back(std::move(*r));
      RemoveImages();  // fresh images per combination
    }
  }
  ASSERT_EQ(results.size(), 6u);
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[0].entries, results[i].entries) << "run " << i;
    EXPECT_EQ(results[0].sizes, results[i].sizes) << "run " << i;
    EXPECT_EQ(results[0].ops_ok, results[i].ops_ok) << "run " << i;
  }
  EXPECT_EQ(results[0].entries,
            (std::vector<std::string>{"f2", "f3", "f4", "f5", "g1"}));
}

// -- Shard-owned fd tables ---------------------------------------------------

// Reads block `block` of `fd`: kCorrupt unless every byte is `value`.
Task<Status> ExpectBlock(ClientInterface* c, Fd fd, uint64_t block, std::byte value) {
  std::vector<std::byte> back(kDefaultBlockSize);
  auto n = co_await c->Read(fd, block * kDefaultBlockSize, back.size(), back);
  PFS_CO_RETURN_IF_ERROR(n.status());
  if (*n != back.size() || std::count(back.begin(), back.end(), value) !=
                               static_cast<std::ptrdiff_t>(back.size())) {
    co_return Status(ErrorCode::kCorrupt, "block " + std::to_string(block));
  }
  co_return OkStatus();
}

std::byte BlockValue(uint64_t block) { return static_cast<std::byte>(0x40 + block); }

constexpr int kFdRounds = 40;

// One shard's part of the cross-shard fd test, from a thread on that shard.
// `step` 0: each round writes this side's block through `fds[0]` and reads
// it back, and opens and closes a third fd, so both sides take and free
// slots of one table. Each round ends with a yield, so the shards' calls
// interleave (and, under ASan, whose resume chains do not collapse, the
// shard-local side's stack stays shallow). Step 1: reads the other side's
// blocks through `fds[side]`. Step 2: closes `fds[side]`. Step 3: both fds
// are closed.
Task<Status> FdSide(ClientInterface* c, const Fd* fds, int side, int step) {
  Scheduler* self = Scheduler::Current();
  switch (step) {
    case 0:
      for (int r = 0; r < kFdRounds; ++r) {
        const uint64_t block = 2 * static_cast<uint64_t>(r) + static_cast<uint64_t>(side);
        std::vector<std::byte> data(kDefaultBlockSize, BlockValue(block));
        auto wrote = co_await c->Write(fds[0], block * kDefaultBlockSize, data.size(), data);
        PFS_CO_RETURN_IF_ERROR(wrote.status());
        PFS_CO_RETURN_IF_ERROR(co_await ExpectBlock(c, fds[0], block, BlockValue(block)));
        auto extra = co_await c->Open("/fs1/shared", OpenOptions{});
        PFS_CO_RETURN_IF_ERROR(extra.status());
        PFS_CO_RETURN_IF_ERROR(co_await c->Close(*extra));
        co_await self->Yield();
      }
      co_return OkStatus();
    case 1:
      for (int r = 0; r < kFdRounds; ++r) {
        const uint64_t block = 2 * static_cast<uint64_t>(r) + static_cast<uint64_t>(1 - side);
        PFS_CO_RETURN_IF_ERROR(co_await ExpectBlock(c, fds[side], block, BlockValue(block)));
        co_await self->Yield();
      }
      co_return OkStatus();
    case 2:
      co_return co_await c->Close(fds[side]);
    default:
      for (int i = 0; i < 2; ++i) {
        if ((co_await c->FStat(fds[i])).code() != ErrorCode::kInvalidArgument) {
          co_return Status(ErrorCode::kCorrupt, "closed fd still open");
        }
      }
      co_return OkStatus();
  }
}

TEST_F(SystemTest, FdsOfOneShardWorkFromEveryShardOnTheRealClock) {
  // fs1 lives on shard 1, so the fds of its files name shard 1's table.
  // Shard 0 opens two; then a thread on each shard, each on its own OS
  // thread, writes, reads and closes through them at once. Shard 0's calls
  // hop to shard 1, which alone touches its table.
  SystemConfig config = SmallConfig();
  config.backend = BackendKind::kFileBacked;
  config.image_path = image_;
  config.shards = 2;
  auto built = SystemBuilder::Build(config);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  System& sys = **built;
  ASSERT_TRUE(sys.Setup().ok());
  ASSERT_EQ(sys.fs_shard(1), 1);

  Fd fds[2] = {-1, -1};
  Status opened(ErrorCode::kAborted);
  sys.shard_scheduler(0)->Spawn("test.open", [](ClientInterface* c, Fd* out,
                                                Status* st) -> Task<> {
    OpenOptions create;
    create.create = true;
    for (int i = 0; i < 2; ++i) {
      auto fd = co_await c->Open("/fs1/shared", create);
      *st = fd.status();
      if (!fd.ok()) {
        co_return;
      }
      out[i] = *fd;
    }
  }(sys.client(), fds, &opened));
  sys.RunToCompletion();
  ASSERT_TRUE(opened.ok()) << opened.ToString();

  for (int step = 0; step < 4; ++step) {
    Status results[2] = {Status(ErrorCode::kAborted), Status(ErrorCode::kAborted)};
    for (int side = 0; side < 2; ++side) {
      sys.shard_scheduler(side)->Spawn(
          "test.side", [](ClientInterface* c, const Fd* f, int sd, int st,
                          Status* out) -> Task<> {
            *out = co_await FdSide(c, f, sd, st);
          }(sys.client(), fds, side, step, &results[side]));
    }
    sys.RunToCompletion();
    EXPECT_TRUE(results[0].ok()) << "step " << step << ", shard 0: " << results[0].ToString();
    EXPECT_TRUE(results[1].ok()) << "step " << step << ", shard 1: " << results[1].ToString();
  }
}

// -- Validation: every config error surfaces in one place ------------------

TEST(SystemValidateTest, RejectsZeroDisks) {
  SystemConfig config;
  config.disks_per_bus = {};
  EXPECT_EQ(SystemBuilder::Validate(config).code(), ErrorCode::kInvalidArgument);
  config.disks_per_bus = {0, 0};
  EXPECT_EQ(SystemBuilder::Validate(config).code(), ErrorCode::kInvalidArgument);
  EXPECT_FALSE(SystemBuilder::Build(config).ok());
}

TEST(SystemValidateTest, RejectsUnknownNames) {
  SystemConfig config;
  config.layout = "zfs";
  const Status layout_status = SystemBuilder::Validate(config);
  EXPECT_EQ(layout_status.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(layout_status.ToString().find("layout"), std::string::npos);

  config = SystemConfig{};
  config.flush_policy = "sometimes";
  EXPECT_EQ(SystemBuilder::Validate(config).code(), ErrorCode::kInvalidArgument);

  config = SystemConfig{};
  config.replacement = "MRU";
  EXPECT_EQ(SystemBuilder::Validate(config).code(), ErrorCode::kInvalidArgument);

  config = SystemConfig{};
  config.cleaner = "lazy";
  EXPECT_EQ(SystemBuilder::Validate(config).code(), ErrorCode::kInvalidArgument);

  config = SystemConfig{};
  config.queue_policy = "ELEVATOR";
  const Status queue_status = SystemBuilder::Validate(config);
  EXPECT_EQ(queue_status.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(queue_status.ToString().find("queue_policy"), std::string::npos);
  EXPECT_NE(queue_status.ToString().find("C-LOOK"), std::string::npos);
}

TEST(SystemValidateTest, AcceptsEveryQueuePolicyName) {
  for (const char* name : {"FCFS", "SSTF", "SCAN", "C-SCAN", "LOOK", "C-LOOK"}) {
    SystemConfig config;
    config.queue_policy = name;
    EXPECT_TRUE(SystemBuilder::Validate(config).ok()) << name;
  }
}

TEST(SystemValidateTest, RejectsBadVolumeSpecs) {
  SystemConfig base;
  base.disks_per_bus = {2};
  base.num_filesystems = 2;

  SystemConfig config = base;
  VolumeSpec spec;
  spec.members = {0};
  config.volumes = {spec};  // 1 spec for 2 file systems
  Status status = SystemBuilder::Validate(config);
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("volumes"), std::string::npos);

  config = base;
  spec = VolumeSpec{};
  spec.kind = "raid6";
  spec.members = {0};
  config.volumes = {spec, spec};
  status = SystemBuilder::Validate(config);
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("kind"), std::string::npos);

  config = base;
  spec = VolumeSpec{};
  spec.members = {0, 7};  // disk 7 does not exist
  spec.kind = "mirror";
  config.volumes = {spec, spec};
  status = SystemBuilder::Validate(config);
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("members"), std::string::npos);

  config = base;
  spec = VolumeSpec{};
  spec.kind = "single";
  spec.members = {0, 1};  // single takes exactly one
  config.volumes = {spec, spec};
  EXPECT_EQ(SystemBuilder::Validate(config).code(), ErrorCode::kInvalidArgument);

  config = base;
  spec = VolumeSpec{};
  spec.kind = "striped";
  spec.members = {0, 1};
  spec.stripe_unit_kb = 0;
  config.volumes = {spec, spec};
  EXPECT_EQ(SystemBuilder::Validate(config).code(), ErrorCode::kInvalidArgument);

  // A stripe unit smaller than (or not a multiple of) the sector must be a
  // Status error, not a divide-by-zero.
  config = base;
  config.disk_params.geometry.sector_bytes = 4096;
  spec.stripe_unit_kb = 1;
  config.volumes = {spec, spec};
  status = SystemBuilder::Validate(config);
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("stripe_unit_kb"), std::string::npos);

  // The same disk twice in one volume: a mirror with zero redundancy.
  config = base;
  spec = VolumeSpec{};
  spec.kind = "mirror";
  spec.members = {0, 0};
  config.volumes = {spec, spec};
  status = SystemBuilder::Validate(config);
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("twice"), std::string::npos);
}

TEST(SystemValidateTest, AcceptsVolumeSpecsThatFit) {
  SystemConfig config;
  config.disks_per_bus = {3};
  config.num_filesystems = 2;
  VolumeSpec striped;
  striped.kind = "striped";
  striped.members = {0, 1, 2};
  VolumeSpec concat;
  concat.kind = "concat";
  concat.members = {0, 2};
  config.volumes = {striped, concat};
  EXPECT_TRUE(SystemBuilder::Validate(config).ok())
      << SystemBuilder::Validate(config).ToString();
}

TEST(SystemValidateTest, RejectsMoreFilesystemsThanDisksCanHold) {
  SystemConfig config;
  config.backend = BackendKind::kFileBacked;
  config.image_path = "/tmp/pfs_validate_test.img";
  config.disks_per_bus = {1};
  config.image_bytes = 8 * kMiB;
  config.num_filesystems = 64;  // 8 MiB / 64 partitions << an LFS minimum
  const Status status = SystemBuilder::Validate(config);
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("num_filesystems"), std::string::npos);
}

TEST(SystemValidateTest, RejectsFileBackedWithoutImagePath) {
  SystemConfig config = SystemConfig::OnlineDefaults();
  EXPECT_EQ(SystemBuilder::Validate(config).code(), ErrorCode::kInvalidArgument);
  config.image_path = "/tmp/pfs_validate_test2.img";
  EXPECT_TRUE(SystemBuilder::Validate(config).ok());
}

TEST(SystemValidateTest, RejectsShardPinOutsideTheShardRange) {
  // The parse error carries the offending line and enumerates the range.
  auto parsed = SystemConfig::Parse(
      "backend = simulated\n"
      "topology.disks_per_bus = 2\n"
      "topology.num_filesystems = 2\n"
      "system.shards = 2\n"
      "fs0.shard = 5\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), ErrorCode::kInvalidArgument);
  const std::string msg = parsed.status().ToString();
  EXPECT_NE(msg.find("line 5"), std::string::npos) << msg;
  EXPECT_NE(msg.find("valid shards are 0..1"), std::string::npos) << msg;

  // Same rejection for a programmatic config, through Validate.
  SystemConfig config;
  config.disks_per_bus = {2};
  config.num_filesystems = 2;
  config.shards = 2;
  config.fs_shards = {5};
  const Status status = SystemBuilder::Validate(config);
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("valid shards are 0..1"), std::string::npos);

  // With one shard the enumeration degenerates to the only legal value.
  config.shards = 1;
  config.fs_shards = {1};
  const Status one = SystemBuilder::Validate(config);
  EXPECT_EQ(one.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(one.ToString().find("the only valid shard is 0"), std::string::npos);
}

TEST(SystemValidateTest, RejectsCrossShardMirrorMembers) {
  // disk 0 is owned by fs0's shard; a mirror on another shard may not
  // reference it — every replica write would cross shards.
  auto parsed = SystemConfig::Parse(
      "backend = simulated\n"
      "topology.disks_per_bus = 1, 1\n"
      "topology.num_filesystems = 2\n"
      "system.shards = 2\n"
      "fs0.shard = 0\n"
      "fs1.shard = 1\n"
      "volume0.kind = single\n"
      "volume0.members = 0\n"
      "volume1.kind = mirror\n"
      "volume1.members = 0, 1\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), ErrorCode::kInvalidArgument);
  const std::string msg = parsed.status().ToString();
  EXPECT_NE(msg.find("mirror"), std::string::npos) << msg;
  EXPECT_NE(msg.find("shard-local"), std::string::npos) << msg;
  EXPECT_NE(msg.find("line 6"), std::string::npos) << msg;
}

TEST(SystemValidateTest, RejectsShardedSimulationOnTheRealClock) {
  auto parsed = SystemConfig::Parse(
      "backend = simulated\n"
      "clock = real\n"
      "topology.disks_per_bus = 2\n"
      "topology.num_filesystems = 2\n"
      "system.shards = 2\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(parsed.status().ToString().find("virtual clock"), std::string::npos)
      << parsed.status().ToString();
}

TEST(SystemValidateTest, PatsyAndOnlineShareOneDescription) {
  // The cut-and-paste property as an API: the same value validates for both
  // instantiations, and each facade only flips the backend.
  SystemConfig shared = SystemConfig::OnlineDefaults();
  shared.image_path = "/tmp/pfs_validate_test3.img";
  EXPECT_TRUE(SystemBuilder::Validate(shared).ok());
  SystemConfig sim = shared;
  sim.backend = BackendKind::kSimulated;
  EXPECT_TRUE(SystemBuilder::Validate(sim).ok());
  EXPECT_TRUE(sim.virtual_clock());
  EXPECT_FALSE(shared.virtual_clock());
}

}  // namespace
}  // namespace pfs
