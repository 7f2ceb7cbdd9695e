// IOPS ceiling of the batched file-backed I/O path: random 4 KiB reads
// through a striped volume over N FileBackedDrivers, swept over queue depth
// (concurrent reader coroutines) and member count. Requests queue at the
// drivers, and the C-LOOK worker drains up to 32 per dispatch into one
// engine batch, so the I/O pool takes one job per batch instead of one per
// request — the sweep shows where the ceiling sits and how reqs/batch grows
// with queue depth.
//
// Wall-clock IOPS depend on the host; the portable claim is the efficiency
// column: reqs/batch > 1 whenever the queue is deeper than one.
//
// --json appends one line per point to BENCH_iops_ceiling.json (including
// driver 0's StatJson: batches, reqs_per_batch, submit_us percentiles).
// --config <scenario> overrides io_threads / queue policy / image size.
#include <cstdio>
#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "driver/file_backed_driver.h"
#include "system/component_registry.h"
#include "volume/volume.h"

using namespace pfs;

namespace {

constexpr uint32_t kReadSectors = 8;  // 4 KiB per op
constexpr uint32_t kStripeUnitSectors = 8;

struct PointResult {
  double iops = 0;
  double reqs_per_batch = 0;
  std::string driver_json;  // driver 0
};

Result<PointResult> RunPoint(int members, int qd, int total_ops,
                             const SystemConfig& base) {
  auto sched = Scheduler::CreateReal(static_cast<uint64_t>(members * 1000 + qd));
  MetricRegistry metrics(1, "pfs");
  IoExecutor executor(base.io_threads);
  const QueueSchedPolicy policy = *QueuePolicyRegistry::Find(base.queue_policy);

  const std::string prefix = "/tmp/pfs_iops_" + std::to_string(::getpid()) + "_";
  const uint64_t image_bytes = 16 * kMiB;
  std::vector<std::unique_ptr<FileBackedDriver>> drivers;
  std::vector<BlockDevice*> member_devs;
  std::vector<std::string> paths;
  for (int i = 0; i < members; ++i) {
    paths.push_back(prefix + std::to_string(i) + ".img");
    PFS_ASSIGN_OR_RETURN(std::unique_ptr<FileBackedDriver> driver,
                         FileBackedDriver::Create(sched.get(), &metrics,
                                                  "d" + std::to_string(i),
                                                  paths.back(), image_bytes,
                                                  &executor, policy));
    driver->Start();
    member_devs.push_back(driver.get());
    drivers.push_back(std::move(driver));
  }
  std::unique_ptr<Volume> volume;
  if (members == 1) {
    volume = std::make_unique<SingleDiskVolume>(sched.get(), &metrics, "bench",
                                                member_devs[0]);
  } else {
    volume = std::make_unique<StripedVolume>(sched.get(), &metrics, "bench", member_devs,
                                             kStripeUnitSectors);
  }

  const uint64_t slots = volume->total_sectors() / kReadSectors;
  std::vector<Status> results(static_cast<size_t>(qd), Status(ErrorCode::kAborted));
  std::vector<std::vector<std::byte>> buffers(
      static_cast<size_t>(qd),
      std::vector<std::byte>(kReadSectors * volume->sector_bytes()));
  const auto t0 = sched->Now();
  for (int w = 0; w < qd; ++w) {
    const int ops = total_ops / qd + (w < total_ops % qd ? 1 : 0);
    sched->Spawn("bench.worker" + std::to_string(w),
                 [](Volume* vol, uint64_t nslots, int n, uint64_t seed,
                    std::span<std::byte> buf, Status* out) -> Task<> {
                   uint64_t state = seed * 0x9E3779B97F4A7C15ull + 1;
                   for (int i = 0; i < n; ++i) {
                     state = state * 6364136223846793005ull + 1442695040888963407ull;
                     const uint64_t sector = (state >> 16) % nslots * kReadSectors;
                     const Status s = co_await vol->Read(sector, kReadSectors, buf);
                     if (!s.ok()) {
                       *out = s;
                       co_return;
                     }
                   }
                   *out = OkStatus();
                 }(volume.get(), slots, ops, static_cast<uint64_t>(w + 1),
                   buffers[static_cast<size_t>(w)], &results[static_cast<size_t>(w)]));
  }
  sched->Run();
  const double seconds = (sched->Now() - t0).ToSecondsF();

  PointResult point;
  for (const Status& s : results) {
    PFS_RETURN_IF_ERROR(s);
  }
  if (seconds <= 0) {
    return Status(ErrorCode::kAborted, "zero elapsed time");
  }
  uint64_t total_reqs = 0;
  uint64_t total_batches = 0;
  for (const auto& d : drivers) {
    total_reqs += d->ops_completed();
    total_batches += d->batches();
  }
  point.iops = static_cast<double>(total_ops) / seconds;
  point.reqs_per_batch = total_batches > 0
                             ? static_cast<double>(total_reqs) / static_cast<double>(total_batches)
                             : 0;
  point.driver_json = drivers[0]->StatJson();
  for (const std::string& path : paths) {
    std::remove(path.c_str());
  }
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonSink json("iops_ceiling", argc, argv);
  SystemConfig base = bench::BaseScenario(argc, argv);
  const int total_ops = static_cast<int>(2048 * bench::GetScale());

  std::printf("# Random 4 KiB read IOPS vs queue depth, member count\n");
  std::printf("# %d ops per point, %d io thread(s), %s queue policy\n", total_ops,
              base.io_threads, base.queue_policy.c_str());
  std::printf("%-8s %-4s %12s %12s\n", "members", "qd", "IOPS", "reqs/batch");

  for (int members : {1, 4, 8}) {
    for (int qd : {1, 4, 16, 32}) {
      auto point = RunPoint(members, qd, total_ops, base);
      if (!point.ok()) {
        std::printf("ERROR members=%d qd=%d: %s\n", members, qd,
                    point.status().ToString().c_str());
        return 1;
      }
      std::printf("%-8d %-4d %12.0f %12.2f\n", members, qd, point->iops,
                  point->reqs_per_batch);
      if (json.enabled()) {
        char line[1024];
        std::snprintf(line, sizeof(line),
                      "{\"bench\":\"iops_ceiling\",\"members\":%d,\"qd\":%d,"
                      "\"iops\":%.1f,\"reqs_per_batch\":%.3f,\"driver\":%s}",
                      members, qd, point->iops, point->reqs_per_batch,
                      point->driver_json.c_str());
        json.Append(line);
      }
    }
  }
  return 0;
}
