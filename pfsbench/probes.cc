#include "probes.h"

#include <fcntl.h>
#include <unistd.h>

#include <chrono>

#include "core/random.h"
#include "disk/io_request.h"
#include "driver/io_engine.h"
#include "layout/storage_layout.h"
#include "system/component_registry.h"

namespace pfsbench {
namespace {

using WallClock = std::chrono::steady_clock;

constexpr uint64_t kBlock = pfs::kDefaultBlockSize;
// One cold block per miss probe: the probe file holds kProbeCalls blocks,
// written back kProbeChunkBlocks at a time.
constexpr uint64_t kProbeChunkBlocks = 64;
// Address probes below the layout read 4 KiB blocks at random aligned
// offsets in the front of the device, where the log has written data.
constexpr uint64_t kAddressRegion = 64 * pfs::kMiB;

struct TierSamples {
  const char* name;
  LogLinearHistogram wall;
  LogLinearHistogram clock;
};

struct ProbeState {
  pfs::System* sys = nullptr;
  SpanLog* spans = nullptr;
  TierSamples local_read{"client.read_hit_us", {}, {}};
  TierSamples routed_read{"client.routed_read_us", {}, {}};
  TierSamples yield{"sched.yield_ns", {}, {}};
  TierSamples get_hit{"cache.get_hit_us", {}, {}};
  TierSamples get_miss{"cache.get_miss_us", {}, {}};
  TierSamples layout_read{"layout.read_block_us", {}, {}};
  TierSamples volume_read{"volume.read_us", {}, {}};
  TierSamples driver_read{"driver.read_us", {}, {}};
  TierSamples device_read{"device.read_us", {}, {}};
  std::string problem;
};

// Times one call on both clocks and keeps the tier's span.
class CallTimer {
 public:
  CallTimer(pfs::Scheduler* sched, SpanLog* spans) : sched_(sched), spans_(spans) {}

  void Start() {
    wall_ = WallClock::now();
    clock_ = sched_->Now();
  }
  void Stop(TierSamples* tier) {
    tier->wall.Record(
        std::chrono::duration_cast<std::chrono::nanoseconds>(WallClock::now() - wall_).count());
    tier->clock.Record((sched_->Now() - clock_).nanos());
  }

  // A span covering one tier's whole batch of calls, nested under the root.
  void BeginTier() { tier_begin_ = sched_->Now(); }
  void EndTier(const TierSamples& tier) {
    spans_->spans.push_back(Span{tier.name, tier_begin_.nanos(), sched_->Now().nanos(), 0, 0});
  }

 private:
  pfs::Scheduler* sched_;
  SpanLog* spans_;
  WallClock::time_point wall_;
  pfs::TimePoint clock_;
  pfs::TimePoint tier_begin_;
};

uint64_t RegionBlocks(uint64_t device_bytes) {
  return std::max<uint64_t>(1, std::min(device_bytes, kAddressRegion) / kBlock);
}

// Creates `path` holding one block and returns an open descriptor.
pfs::Task<pfs::Result<pfs::Fd>> MakeBlockFile(pfs::ClientInterface* client,
                                              const std::string& path,
                                              std::span<const std::byte> data) {
  pfs::OpenOptions create;
  create.create = true;
  PFS_CO_ASSIGN_OR_RETURN(const pfs::Fd fd, co_await client->Open(path, create));
  PFS_CO_ASSIGN_OR_RETURN(const uint64_t wrote, co_await client->Write(fd, 0, kBlock, data));
  if (wrote != kBlock) {
    co_return pfs::Status(pfs::ErrorCode::kIoError, "short probe-file write");
  }
  co_return fd;
}

pfs::Task<> ProbeBody(ProbeState* st) {
  pfs::System& sys = *st->sys;
  pfs::Scheduler* sched = pfs::Scheduler::Current();
  pfs::ClientInterface* client = sys.client();
  const bool real = !sys.config().simulated();
  CallTimer timer(sched, st->spans);
  const pfs::TimePoint root_begin = sched->Now();

  // Buffers: real bytes on the file-backed backend, empty spans on Patsy
  // (the simulator moves no data).
  std::vector<std::byte> chunk(real ? kProbeChunkBlocks * kBlock : 0);
  std::vector<std::byte> block(real ? kBlock : 0);

  // The probe file is written, and written back, a chunk at a time so its
  // blocks get disk addresses. Two defects rule out one write plus SyncAll:
  // BufferCache::FlushBlockSet compares each block's dirty version with
  // another block's once it has sorted them, so after the clients' random
  // overwrites blocks stay dirty and SyncAll re-flushes them forever; and
  // LfsLayout waits forever to admit an append longer than the log space its
  // cleaner frees (cleaner_high segments), which a 2000-block flush is once
  // the log is nearly full.
  const std::string path = "/" + sys.mount_name(0) + "/pfsbench.probe";
  pfs::OpenOptions create;
  create.create = true;
  auto fd = co_await client->Open(path, create);
  if (!fd.ok()) {
    st->problem = "probe file: " + fd.status().ToString();
    co_return;
  }
  auto attrs = co_await client->FStat(*fd);
  if (!attrs.ok()) {
    st->problem = "probe file stat failed";
    co_return;
  }
  const uint64_t ino = attrs->ino;
  pfs::BufferCache* cache = sys.shard_cache(sys.fs_shard(0));
  const uint32_t fs_id = sys.layout(0)->fs_id();
  for (uint64_t b = 0; b < kProbeCalls; b += kProbeChunkBlocks) {
    const uint64_t bytes = std::min<uint64_t>(kProbeChunkBlocks, kProbeCalls - b) * kBlock;
    auto wrote = co_await client->Write(*fd, b * kBlock, bytes,
                                        std::span<const std::byte>(chunk).first(real ? bytes : 0));
    const pfs::Status flushed = co_await cache->FlushFile(fs_id, ino);
    if (!wrote.ok() || !flushed.ok()) {
      st->problem = "probe file write-back failed";
      co_return;
    }
  }

  // client: a resident block read through LocalClient on its own shard.
  (void)co_await client->Read(*fd, 0, kBlock, block);
  timer.BeginTier();
  for (int i = 0; i < kProbeCalls; ++i) {
    timer.Start();
    auto n = co_await client->Read(*fd, 0, kBlock, block);
    timer.Stop(&st->local_read);
    if (!n.ok()) {
      st->problem = "client probe read failed";
      co_return;
    }
  }
  timer.EndTier(st->local_read);

  // The same read against the last file system, which is on another shard
  // when the system has more than one (the cross-shard mailbox round trip).
  const std::string xpath = "/" + sys.mount_name(sys.filesystem_count() - 1) + "/pfsbench.xprobe";
  auto xfd = co_await MakeBlockFile(client, xpath, std::span<const std::byte>(block));
  if (!xfd.ok()) {
    st->problem = "routed probe file: " + xfd.status().ToString();
    co_return;
  }
  timer.BeginTier();
  for (int i = 0; i < kProbeCalls; ++i) {
    timer.Start();
    auto n = co_await client->Read(*xfd, 0, kBlock, block);
    timer.Stop(&st->routed_read);
    if (!n.ok()) {
      st->problem = "routed probe read failed";
      co_return;
    }
  }
  timer.EndTier(st->routed_read);

  // sched: one reschedule of the calling thread.
  timer.BeginTier();
  for (int i = 0; i < kProbeCalls; ++i) {
    timer.Start();
    co_await sched->Yield();
    timer.Stop(&st->yield);
  }
  timer.EndTier(st->yield);

  // cache: lookup of the resident block 0, then of cold blocks.
  timer.BeginTier();
  for (int i = 0; i < kProbeCalls; ++i) {
    timer.Start();
    auto got = co_await cache->GetBlock(pfs::BlockId{fs_id, ino, 0}, pfs::GetMode::kRead);
    if (!got.ok()) {
      st->problem = "cache hit probe failed";
      co_return;
    }
    cache->Release(*got);
    timer.Stop(&st->get_hit);
  }
  timer.EndTier(st->get_hit);

  cache->InvalidateFile(fs_id, ino);
  uint64_t extra_misses = 0;
  timer.BeginTier();
  for (int i = 0; i < kProbeCalls; ++i) {
    const uint64_t misses_before = cache->misses();
    timer.Start();
    auto got = co_await cache->GetBlock(pfs::BlockId{fs_id, ino, static_cast<uint64_t>(i)},
                                        pfs::GetMode::kRead);
    if (!got.ok()) {
      st->problem = "cache miss probe failed: " + got.status().ToString();
      co_return;
    }
    cache->Release(*got);
    timer.Stop(&st->get_miss);
    if (cache->misses() != misses_before + 1) {
      ++extra_misses;
    }
  }
  timer.EndTier(st->get_miss);
  if (extra_misses != 0) {
    st->problem = std::to_string(extra_misses) +
                  " cold-block probes did not register exactly one miss";
    co_return;
  }

  // layout: the block map lookup plus the device read the cache fill runs.
  pfs::StorageLayout* layout = sys.layout(0);
  timer.BeginTier();
  for (int i = 0; i < kProbeCalls; ++i) {
    timer.Start();
    const pfs::Status s = co_await layout->ReadFileBlock(ino, static_cast<uint64_t>(i), block);
    timer.Stop(&st->layout_read);
    if (!s.ok()) {
      st->problem = "layout probe failed: " + s.ToString();
      co_return;
    }
  }
  timer.EndTier(st->layout_read);

  // volume and driver: 4 KiB reads at random block-aligned addresses.
  pfs::Rng rng(0x5eed);
  pfs::Volume* volume = sys.volume(0);
  const uint32_t vol_spb = static_cast<uint32_t>(kBlock / volume->sector_bytes());
  const uint64_t vol_blocks = RegionBlocks(volume->total_sectors() * volume->sector_bytes());
  timer.BeginTier();
  for (int i = 0; i < kProbeCalls; ++i) {
    const uint64_t sector = rng.NextBelow(vol_blocks) * vol_spb;
    timer.Start();
    const pfs::Status s = co_await volume->Read(sector, vol_spb, block);
    timer.Stop(&st->volume_read);
    if (!s.ok()) {
      st->problem = "volume probe failed: " + s.ToString();
      co_return;
    }
  }
  timer.EndTier(st->volume_read);

  pfs::QueueingDiskDriver* driver = sys.drivers()[0].get();
  const uint32_t drv_spb = static_cast<uint32_t>(kBlock / driver->sector_bytes());
  const uint64_t drv_blocks = RegionBlocks(driver->total_sectors() * driver->sector_bytes());
  timer.BeginTier();
  for (int i = 0; i < kProbeCalls; ++i) {
    const uint64_t sector = rng.NextBelow(drv_blocks) * drv_spb;
    timer.Start();
    const pfs::Status s = co_await driver->Read(sector, drv_spb, block);
    timer.Stop(&st->driver_read);
    if (!s.ok()) {
      st->problem = "driver probe failed: " + s.ToString();
      co_return;
    }
  }
  timer.EndTier(st->driver_read);

  // device, simulated: a request straight to disk 0's model, skipping the
  // driver's queue and command phase. (The file-backed device probe runs
  // outside the scheduler; see RunProbeChain.)
  if (!real) {
    pfs::DiskModel* disk = sys.disks()[0].get();
    timer.BeginTier();
    for (int i = 0; i < kProbeCalls; ++i) {
      const uint64_t sector = rng.NextBelow(drv_blocks) * drv_spb;
      pfs::IoRequest req(sched, pfs::IoOp::kRead, sector, drv_spb, {}, {});
      timer.Start();
      req.dispatch_time = sched->Now();
      co_await disk->Submit(&req);
      co_await req.done.Wait();
      timer.Stop(&st->device_read);
      if (!req.result.ok()) {
        st->problem = "disk probe failed: " + req.result.ToString();
        co_return;
      }
    }
    timer.EndTier(st->device_read);
  }

  (void)co_await client->Close(*xfd);
  (void)co_await client->Close(*fd);
  st->spans->spans.push_back(Span{"probe", root_begin.nanos(), sched->Now().nanos(), 0, 0});
}

// The file-backed device probe: one 4 KiB pread per batch through the
// configured IoEngine on disk 0's image, from the calling OS thread.
std::string ProbeEngine(const pfs::SystemConfig& config, const std::string& image_path,
                        TierSamples* tier) {
  const auto* factory = pfs::IoEngineRegistry::Find(config.io_engine);
  if (factory == nullptr) {
    return "unknown io engine " + config.io_engine;
  }
  std::unique_ptr<pfs::IoEngine> engine = (*factory)();
  const int fd = ::open(image_path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return "cannot open " + image_path;
  }
  std::vector<std::byte> buf(kBlock);
  pfs::Rng rng(0xe9);
  const uint64_t blocks = RegionBlocks(config.image_bytes);
  std::string problem;
  for (int i = 0; i < kProbeCalls && problem.empty(); ++i) {
    pfs::BatchIo io;
    io.op = pfs::IoOp::kRead;
    io.fd = fd;
    io.offset = rng.NextBelow(blocks) * kBlock;
    io.read_buf = buf;
    const auto begin = WallClock::now();
    engine->RunBatch(std::span<pfs::BatchIo>(&io, 1));
    const int64_t ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(WallClock::now() - begin).count();
    tier->wall.Record(ns);
    tier->clock.Record(ns);
    if (!io.result.ok()) {
      problem = "engine probe failed: " + io.result.ToString();
    }
  }
  ::close(fd);
  return problem;
}

ProbeResult Summarize(const TierSamples& tier, double scale) {
  return ProbeResult{tier.name, tier.wall.PercentileNs(0.5) / scale,
                     tier.clock.PercentileNs(0.5) / scale};
}

}  // namespace

ProbeChain RunProbeChain(pfs::System& sys, const std::string& image_path, SpanLog* spans) {
  auto st = std::make_unique<ProbeState>();  // ~1 MiB of histograms: off the stack
  st->sys = &sys;
  st->spans = spans;
  sys.fs_scheduler(0)->Spawn("pfsbench.probe", ProbeBody(st.get()));
  sys.RunToCompletion();
  if (st->problem.empty() && !sys.config().simulated()) {
    st->problem = ProbeEngine(sys.config(), image_path, &st->device_read);
  }
  ProbeChain chain;
  chain.problem = st->problem;
  for (const TierSamples* tier :
       {&st->local_read, &st->routed_read, &st->get_hit, &st->get_miss, &st->layout_read,
        &st->volume_read, &st->driver_read, &st->device_read}) {
    chain.tiers.push_back(Summarize(*tier, 1e3));
  }
  chain.tiers.push_back(Summarize(st->yield, 1.0));
  return chain;
}

void AddProbeMetrics(const ProbeChain& chain, Report* report) {
  auto wall = [&chain](const std::string& name) {
    for (const ProbeResult& tier : chain.tiers) {
      if (tier.name == name) {
        return tier.wall_us;
      }
    }
    return 0.0;
  };
  const std::string note = "p50 of " + std::to_string(kProbeCalls) + " serial calls, wall";
  for (const ProbeResult& tier : chain.tiers) {
    if (tier.name != "client.routed_read_us") {
      report->Add(tier.name, tier.wall_us, tier.name == "sched.yield_ns" ? "ns" : "us", note);
    }
  }
  report->Add("client.cross_us", wall("client.routed_read_us") - wall("client.read_hit_us"), "us",
              "read on the last file system's shard minus read on file system 0's");
  report->Add("client.self_us", wall("client.read_hit_us") - wall("cache.get_hit_us"), "us");
  report->Add("cache.miss_self_us", wall("cache.get_miss_us") - wall("layout.read_block_us"), "us");
  report->Add("layout.self_us", wall("layout.read_block_us") - wall("volume.read_us"), "us");
  report->Add("volume.self_us", wall("volume.read_us") - wall("driver.read_us"), "us");
  report->Add("driver.self_us", wall("driver.read_us") - wall("device.read_us"), "us");
}

}  // namespace pfsbench
