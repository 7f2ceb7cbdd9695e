// Striped-volume scaling: the same sequential read workload against one LFS
// file system whose volume stripes over 1, 2, 4, and 8 disks. The volume
// layer splits each multi-block run at stripe-unit boundaries, coalesces the
// per-member fragments into one contiguous request per member, and fans them
// out to the drivers in parallel, so read throughput climbs with member
// count — the multi-disk parallelism a single-partition file system can
// never reach.
//
// Two sweeps:
//  - simulated (HP 97560, one disk per bus, virtual clock): deterministic
//    numbers; the exit code checks that throughput strictly increases with
//    member count, and tools/check_bench.py gates these points in CI.
//  - file-backed (tmp images, real clock): honest wall-clock MB/s on this
//    host plus the efficiency counters that matter on any host — the
//    driver's reqs/batch and the engine actually used.
//
// With --json, one line per point goes to BENCH_volume_scaling.json,
// including the volume's (and for file-backed, driver 0's) own StatJson.
#include <cstdio>
#include <unistd.h>

#include <vector>

#include "bench_util.h"
#include "system/system_builder.h"

using namespace pfs;

namespace {

constexpr uint32_t kRunBlocks = 2048;  // 8 MiB per read run: at 8 members and
                                       // a 256 KiB stripe unit each member
                                       // still sees 4 units per run, so every
                                       // point exercises fragment coalescing
constexpr int kSimRuns = 32;           // 256 MiB per simulated measurement
constexpr int kFbRuns = 8;             // 64 MiB per file-backed measurement

struct Point {
  double mbps = 0;
  std::string volume_json;
  std::string driver_json;  // file-backed only
};

SystemConfig SweepConfig(int members) {
  SystemConfig config;
  config.backend = BackendKind::kSimulated;
  config.disks_per_bus.assign(static_cast<size_t>(members), 1);
  config.num_filesystems = 1;
  config.cache_bytes = 4 * kMiB;
  config.lfs_segment_blocks = 64;
  config.max_inodes = 1024;
  VolumeSpec spec;
  spec.kind = members == 1 ? "single" : "striped";
  spec.stripe_unit_kb = 256;
  for (int d = 0; d < members; ++d) {
    spec.members.push_back(d);
  }
  config.volumes = {spec};
  return config;
}

// Reads straight through the volume (below the cache, above the drivers):
// the same BlockDev the layout uses, so this is exactly the data path a
// segment read takes. `buf` is empty for the simulated backend (no real
// bytes move) and a real run-sized buffer for the file-backed one.
Result<Point> StripedReadMBps(const SystemConfig& config, int runs,
                              std::span<std::byte> buf) {
  PFS_ASSIGN_OR_RETURN(std::unique_ptr<System> system, SystemBuilder::Build(config));
  PFS_RETURN_IF_ERROR(system->Setup());

  BlockDev dev(system->volume(0), kDefaultBlockSize);
  PFS_CHECK(dev.nblocks() >= static_cast<uint64_t>(runs) * kRunBlocks);
  Status status(ErrorCode::kAborted);
  const TimePoint start = system->scheduler()->Now();
  system->scheduler()->Spawn(
      "bench.reader", [](BlockDev* d, int n, std::span<std::byte> b, Status* out) -> Task<> {
        for (int r = 0; r < n; ++r) {
          const Status s =
              co_await d->ReadRun(static_cast<uint64_t>(r) * kRunBlocks, kRunBlocks, b);
          if (!s.ok()) {
            *out = s;
            co_return;
          }
        }
        *out = OkStatus();
      }(&dev, runs, buf, &status));
  system->scheduler()->Run();
  PFS_RETURN_IF_ERROR(status);

  const double seconds = (system->scheduler()->Now() - start).ToSecondsF();
  if (seconds <= 0) {
    return Status(ErrorCode::kAborted, "zero elapsed time");
  }
  Point point;
  point.volume_json = system->volume(0)->StatJson();
  if (!system->drivers().empty()) {
    point.driver_json = system->drivers()[0]->StatJson();
  }
  const double bytes = static_cast<double>(runs) * kRunBlocks * kDefaultBlockSize;
  point.mbps = bytes / seconds / static_cast<double>(kMiB);
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonSink json("volume_scaling", argc, argv);

  std::printf("# Striped read throughput vs member count (simulated backend)\n");
  std::printf("# %d x %u-block sequential runs, 256 KiB stripe unit, 1 disk per bus\n",
              kSimRuns, kRunBlocks);
  std::printf("%-8s %14s %10s\n", "members", "read MB/s", "speedup");

  double base = 0;
  double prev = 0;
  bool monotonic = true;
  for (int members : {1, 2, 4, 8}) {
    auto point = StripedReadMBps(SweepConfig(members), kSimRuns, {});
    if (!point.ok()) {
      std::printf("ERROR members=%d: %s\n", members, point.status().ToString().c_str());
      return 1;
    }
    if (base == 0) {
      base = point->mbps;
    }
    monotonic = monotonic && point->mbps > prev;
    prev = point->mbps;
    std::printf("%-8d %14.2f %9.2fx\n", members, point->mbps, point->mbps / base);
    if (json.enabled()) {
      char line[768];
      std::snprintf(line, sizeof(line),
                    "{\"bench\":\"volume_scaling\",\"backend\":\"simulated\","
                    "\"members\":%d,\"read_mbps\":%.3f,\"speedup\":%.3f,\"volume\":%s}",
                    members, point->mbps, point->mbps / base, point->volume_json.c_str());
      json.Append(line);
    }
  }
  std::printf("# throughput strictly increases with member count: %s\n",
              monotonic ? "yes" : "NO");

  // File-backed sweep: wall-clock numbers depend on the host (core count,
  // page cache), so no monotonicity requirement — the portable claim is the
  // efficiency counters: one batched engine submission covers several
  // queued requests (driver reqs/batch), fragments coalesce per member.
  std::printf("\n# File-backed sweep\n");
  std::printf("%-8s %14s\n", "members", "read MB/s");
  std::vector<std::byte> buf(static_cast<size_t>(kRunBlocks) * kDefaultBlockSize);
  const std::string image =
      "/tmp/pfs_volscale_" + std::to_string(::getpid()) + ".img";
  for (int members : {1, 2, 4, 8}) {
    SystemConfig config = SweepConfig(members);
    config.backend = BackendKind::kFileBacked;
    config.disks_per_bus = {members};
    config.image_path = image;
    config.image_bytes = 96 * kMiB;
    auto point = StripedReadMBps(config, kFbRuns, buf);
    for (int i = 0; i < config.total_disks(); ++i) {
      std::remove(config.disk_image_path(i).c_str());
    }
    if (!point.ok()) {
      std::printf("ERROR members=%d: %s\n", members, point.status().ToString().c_str());
      return 1;
    }
    std::printf("%-8d %14.2f\n", members, point->mbps);
    if (json.enabled()) {
      char line[1024];
      std::snprintf(line, sizeof(line),
                    "{\"bench\":\"volume_scaling\",\"backend\":\"file-backed\","
                    "\"members\":%d,\"read_mbps\":%.3f,\"volume\":%s,\"driver\":%s}",
                    members, point->mbps, point->volume_json.c_str(),
                    point->driver_json.c_str());
      json.Append(line);
    }
  }
  return monotonic ? 0 : 1;
}
