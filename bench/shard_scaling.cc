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
// shared host disk underneath the image file. speedup is iops relative to
// the shards = 1 row of the same run.
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
#include <vector>

#include "bench_util.h"
#include "system/system_builder.h"

using namespace pfs;

namespace {

constexpr int kFilesystems = 4;
constexpr uint64_t kFileBytes = 1 * kMiB;  // per fs; well inside the cache
constexpr uint64_t kReadBytes = 4 * kKiB;

struct PointResult {
  double iops = 0;
  double seconds = 0;
  std::string sched0_json;
};

Task<> Worker(System* sys, int fs, int worker, int ops, Status* out) {
  OpenOptions create;
  create.create = true;
  ClientInterface* c = sys->client();
  const std::string path =
      "/fs" + std::to_string(fs) + "/w" + std::to_string(worker);
  auto fd = co_await c->Open(path, create);
  if (!fd.ok()) {
    *out = fd.status();
    co_return;
  }
  auto wrote = co_await c->Write(*fd, 0, kFileBytes, {});
  if (!wrote.ok()) {
    *out = wrote.status();
    co_return;
  }
  const uint64_t slots = kFileBytes / kReadBytes;
  uint64_t state = static_cast<uint64_t>(fs * 64 + worker + 1) * 0x9E3779B97F4A7C15ull + 1;
  for (int i = 0; i < ops; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const uint64_t offset = (state >> 16) % slots * kReadBytes;
    auto read = co_await c->Read(*fd, offset, kReadBytes, {});
    if (!read.ok()) {
      *out = read.status();
      co_return;
    }
  }
  *out = co_await c->Close(*fd);
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
  config.cache_bytes = 4 * kMiB;  // per shard: holds every file it owns

  PFS_ASSIGN_OR_RETURN(std::unique_ptr<System> system, SystemBuilder::Build(config));
  PFS_RETURN_IF_ERROR(system->Setup());

  constexpr int kWorkersPerFs = 4;
  std::vector<Status> results(kFilesystems * kWorkersPerFs, Status(ErrorCode::kAborted));
  for (int fs = 0; fs < kFilesystems; ++fs) {
    for (int w = 0; w < kWorkersPerFs; ++w) {
      const int ops = ops_per_fs / kWorkersPerFs + (w < ops_per_fs % kWorkersPerFs ? 1 : 0);
      // Spawn on the file system's own shard: the read loop stays shard-local.
      system->fs_scheduler(fs)->Spawn(
          "bench.fs" + std::to_string(fs) + ".w" + std::to_string(w),
          Worker(system.get(), fs, w, ops, &results[static_cast<size_t>(fs * kWorkersPerFs + w)]));
    }
  }
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
  PointResult point;
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
  const int ops_per_fs = static_cast<int>(20000 * bench::GetScale());
  const unsigned host_cores = std::thread::hardware_concurrency();

  std::printf("# Aggregate cache-hit read IOPS vs system.shards, %d file systems,\n",
              kFilesystems);
  std::printf("# %d reads of %llu bytes per fs, %u host core(s)\n", ops_per_fs,
              static_cast<unsigned long long>(kReadBytes), host_cores);
  std::printf("%-8s %12s %10s %10s\n", "shards", "IOPS", "seconds", "speedup");

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
    std::printf("%-8d %12.0f %10.3f %10.2f\n", shards, point->iops, point->seconds,
                speedup);
    if (json.enabled()) {
      char line[768];
      std::snprintf(line, sizeof(line),
                    "{\"bench\":\"shard_scaling\",\"shards\":%d,\"iops\":%.1f,"
                    "\"seconds\":%.3f,\"speedup\":%.3f,\"host_cores\":%u,"
                    "\"sched0\":%s}",
                    shards, point->iops, point->seconds, speedup, host_cores,
                    point->sched0_json.c_str());
      json.Append(line);
    }
  }
  return 0;
}
