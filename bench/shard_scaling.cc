// Core-scaling of the sharded scheduler: the same file-backed four-file-system
// topology runs at system.shards = 1, 2, 4, and the aggregate cache-hit read
// IOPS is the figure of merit. Each file system (volume, layout, cache) is
// pinned round-robin to a shard; the workers are spawned on their file
// system's own shard, so the steady-state path — client dispatch, cache
// lookup, copy-out — never leaves the shard's OS thread. One loop serializes
// all of that at shards = 1; four loops run it on four cores at shards = 4.
//
// The working set fits in the cache on purpose: after the warm-up write the
// reads are pure per-shard CPU, which is the quantity that shards, not the
// shared host disk underneath the image file. The cache is split across the
// shards, so it is sized for every shard to hold its files at 4 shards, and
// a point whose timed reads hit less than 99% of the time fails the bench.
// Each worker opens and writes its file before the clock starts, so only
// reads are timed. speedup is iops relative to the shards = 1 row of the
// same run.
//
// Wall-clock IOPS depend on the host; speedup only scales with real cores,
// so each JSON line carries host_cores and the baseline check skips the
// speedup gate on hosts with fewer than 4.
//
// --json appends one line per point to BENCH_shard_scaling.json, including
// shard 0's scheduler StatJson (steps, mailbox depth percentiles, idle time).
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "system/system_builder.h"

using namespace pfs;

namespace {

constexpr int kFilesystems = 4;
constexpr int kWorkersPerFs = 4;
constexpr uint64_t kFileBytes = 1 * kMiB;  // per worker
constexpr uint64_t kReadBytes = 4 * kKiB;
// Split across the shards, 8 MiB each at 4 shards: a file system's four
// files take 4 MiB.
constexpr uint64_t kCacheBytes = 32 * kMiB;
constexpr double kMinHitRate = 0.99;

struct PointResult {
  double iops = 0;
  double seconds = 0;
  double hit_rate = 0;
  std::string sched0_json;
};

// Opens the worker's file and writes it whole, so its reads hit the cache.
Task<> Prepare(System* sys, int fs, int worker, Fd* fd, Status* out) {
  OpenOptions create;
  create.create = true;
  ClientInterface* c = sys->client();
  const std::string path =
      "/fs" + std::to_string(fs) + "/w" + std::to_string(worker);
  auto opened = co_await c->Open(path, create);
  if (!opened.ok()) {
    *out = opened.status();
    co_return;
  }
  *fd = *opened;
  *out = (co_await c->Write(*fd, 0, kFileBytes, {})).status();
}

// The timed part: `ops` random block reads of `fd`, then its close.
Task<> Reader(System* sys, int fs, int worker, Fd fd, int ops, Status* out) {
  ClientInterface* c = sys->client();
  const uint64_t slots = kFileBytes / kReadBytes;
  uint64_t state = static_cast<uint64_t>(fs * 64 + worker + 1) * 0x9E3779B97F4A7C15ull + 1;
  for (int i = 0; i < ops; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const uint64_t offset = (state >> 16) % slots * kReadBytes;
    auto read = co_await c->Read(fd, offset, kReadBytes, {});
    if (!read.ok()) {
      *out = read.status();
      co_return;
    }
  }
  *out = co_await c->Close(fd);
}

// Cache hits and misses summed over the shards' caches.
std::pair<uint64_t, uint64_t> CacheLookups(System* sys) {
  uint64_t hits = 0;
  uint64_t misses = 0;
  for (int s = 0; s < sys->shard_count(); ++s) {
    hits += sys->shard_cache(s)->hits();
    misses += sys->shard_cache(s)->misses();
  }
  return {hits, misses};
}

Result<PointResult> RunPoint(int shards, int ops_per_fs, const SystemConfig& base) {
  SystemConfig config = base;
  config.backend = BackendKind::kFileBacked;
  config.image_path =
      "/tmp/pfs_shard_scaling_" + std::to_string(::getpid()) + ".img";
  config.image_bytes = 16 * kMiB;  // per disk
  config.disks_per_bus = {2, 2};
  config.num_filesystems = kFilesystems;
  config.shards = shards;  // fs f rides shard f % shards (the default pin)
  config.volumes.clear();
  config.fs_shards.clear();
  config.cache_bytes = kCacheBytes;

  PFS_ASSIGN_OR_RETURN(std::unique_ptr<System> system, SystemBuilder::Build(config));
  PFS_RETURN_IF_ERROR(system->Setup());

  // Every worker runs on its file system's own shard, so the read loop stays
  // shard-local.
  constexpr size_t kWorkers = kFilesystems * kWorkersPerFs;
  std::vector<Fd> fds(kWorkers, -1);
  std::vector<Status> results(kWorkers, Status(ErrorCode::kAborted));
  for (int fs = 0; fs < kFilesystems; ++fs) {
    for (int w = 0; w < kWorkersPerFs; ++w) {
      const size_t i = static_cast<size_t>(fs * kWorkersPerFs + w);
      system->fs_scheduler(fs)->Spawn(
          "bench.fs" + std::to_string(fs) + ".w" + std::to_string(w) + ".prepare",
          Prepare(system.get(), fs, w, &fds[i], &results[i]));
    }
  }
  system->RunToCompletion();
  for (const Status& s : results) {
    PFS_RETURN_IF_ERROR(s);
  }
  for (int fs = 0; fs < kFilesystems; ++fs) {
    for (int w = 0; w < kWorkersPerFs; ++w) {
      const size_t i = static_cast<size_t>(fs * kWorkersPerFs + w);
      const int ops = ops_per_fs / kWorkersPerFs + (w < ops_per_fs % kWorkersPerFs ? 1 : 0);
      results[i] = Status(ErrorCode::kAborted);
      system->fs_scheduler(fs)->Spawn(
          "bench.fs" + std::to_string(fs) + ".w" + std::to_string(w),
          Reader(system.get(), fs, w, fds[i], ops, &results[i]));
    }
  }
  const auto [hits_before, misses_before] = CacheLookups(system.get());
  const auto t0 = std::chrono::steady_clock::now();
  system->RunToCompletion();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  for (const Status& s : results) {
    PFS_RETURN_IF_ERROR(s);
  }
  if (seconds <= 0) {
    return Status(ErrorCode::kAborted, "zero elapsed time");
  }
  const auto [hits_after, misses_after] = CacheLookups(system.get());
  const uint64_t hits = hits_after - hits_before;
  const uint64_t lookups = hits + (misses_after - misses_before);
  PointResult point;
  point.hit_rate = lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups) : 0;
  if (point.hit_rate < kMinHitRate) {
    return Status(ErrorCode::kAborted,
                  "cache hit rate " + std::to_string(point.hit_rate) + " below " +
                      std::to_string(kMinHitRate) + ": the point measures misses");
  }
  point.seconds = seconds;
  point.iops = static_cast<double>(ops_per_fs) * kFilesystems / seconds;
  point.sched0_json = system->sched_stats(0)->StatJson();
  for (int d = 0; d < config.total_disks(); ++d) {
    std::remove(config.disk_image_path(d).c_str());
  }
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonSink json("shard_scaling", argc, argv);
  SystemConfig base = bench::BaseScenario(argc, argv);
  // Enough that the 4-shard point runs at least a quarter of a second on a
  // 4-core host (it reads 10-18 M IOPS there); BENCH_SCALE scales it.
  const int ops_per_fs = static_cast<int>(1500000 * bench::GetScale());
  const unsigned host_cores = std::thread::hardware_concurrency();

  std::printf("# Aggregate cache-hit read IOPS vs system.shards, %d file systems,\n",
              kFilesystems);
  std::printf("# %d reads of %llu bytes per fs, %u host core(s)\n", ops_per_fs,
              static_cast<unsigned long long>(kReadBytes), host_cores);
  std::printf("%-8s %12s %10s %10s %10s\n", "shards", "IOPS", "seconds", "speedup",
              "hit_rate");

  double base_iops = 0;
  for (int shards : {1, 2, 4}) {
    auto point = RunPoint(shards, ops_per_fs, base);
    if (!point.ok()) {
      std::printf("ERROR shards=%d: %s\n", shards, point.status().ToString().c_str());
      return 1;
    }
    if (shards == 1) {
      base_iops = point->iops;
    }
    const double speedup = base_iops > 0 ? point->iops / base_iops : 0;
    std::printf("%-8d %12.0f %10.3f %10.2f %10.4f\n", shards, point->iops, point->seconds,
                speedup, point->hit_rate);
    if (json.enabled()) {
      char line[768];
      std::snprintf(line, sizeof(line),
                    "{\"bench\":\"shard_scaling\",\"shards\":%d,\"iops\":%.1f,"
                    "\"seconds\":%.3f,\"speedup\":%.3f,\"hit_rate\":%.4f,"
                    "\"host_cores\":%u,\"sched0\":%s}",
                    shards, point->iops, point->seconds, speedup, point->hit_rate,
                    host_cores, point->sched0_json.c_str());
      json.Append(line);
    }
  }
  return 0;
}
