// Disk-model validation: reproduces the latency structure §5.1 reads off the
// CDFs — a ~2 ms floor (SCSI decode), rotational mass up to one revolution,
// a bump near a full rotation (~17 ms), and the sequential-vs-random gap
// from the HP97560's read-ahead cache.
#include <cstdio>

#include "bus/scsi_bus.h"
#include "core/random.h"
#include "disk/disk_model.h"
#include "driver/sim_disk_driver.h"
#include "sched/scheduler.h"
#include "stats/histogram.h"

using namespace pfs;

namespace {

struct Rig {
  Rig() {
    sched = Scheduler::CreateVirtual(1);
    bus = std::make_unique<ScsiBus>(sched.get(), "scsi0");
    disk = std::make_unique<DiskModel>(sched.get(), "d0", DiskParams::Hp97560(), bus.get());
    disk->Start();
    driver = std::make_unique<SimDiskDriver>(sched.get(), &metrics, "d0", disk.get(),
                                             bus.get());
    driver->Start();
  }
  MetricRegistry metrics{1, "pfs"};
  std::unique_ptr<Scheduler> sched;
  std::unique_ptr<ScsiBus> bus;
  std::unique_ptr<DiskModel> disk;
  std::unique_ptr<SimDiskDriver> driver;
};

Task<> RandomReads(Rig* rig, int n, LatencyHistogram* hist) {
  Rng rng(7);
  const uint64_t max_sector = rig->driver->total_sectors() - 8;
  for (int i = 0; i < n; ++i) {
    const TimePoint start = rig->sched->Now();
    (void)co_await rig->driver->Read(rng.NextBelow(max_sector), 8, {});
    hist->Record(rig->sched->Now() - start);
  }
}

Task<> SequentialReads(Rig* rig, int n, LatencyHistogram* hist) {
  uint64_t sector = 10000;
  for (int i = 0; i < n; ++i) {
    const TimePoint start = rig->sched->Now();
    (void)co_await rig->driver->Read(sector, 8, {});
    hist->Record(rig->sched->Now() - start);
    sector += 8;
    // Small think time lets the idle disk run its 4 KB read-ahead.
    co_await rig->sched->Sleep(Duration::Millis(25));
  }
}

Task<> ImmediateWrites(Rig* rig, int n, LatencyHistogram* hist) {
  Rng rng(9);
  const uint64_t max_sector = rig->driver->total_sectors() - 8;
  for (int i = 0; i < n; ++i) {
    const TimePoint start = rig->sched->Now();
    (void)co_await rig->driver->Write(rng.NextBelow(max_sector), 8, {});
    hist->Record(rig->sched->Now() - start);
    co_await rig->sched->Sleep(Duration::Millis(40));  // let destages drain
  }
}

}  // namespace

int main() {
  std::printf("# Disk model validation: HP97560 + SCSI-2, 4 KB transfers\n");
  {
    Rig rig;
    LatencyHistogram hist;
    rig.sched->Spawn("rand", RandomReads(&rig, 2000, &hist));
    rig.sched->Run();
    std::printf("random 4KB reads:     min=%.2fms mean=%.2fms p50=%.2fms p95=%.2fms "
                "max=%.2fms\n",
                hist.min().ToMillisF(), hist.mean().ToMillisF(),
                hist.Percentile(0.5).ToMillisF(), hist.Percentile(0.95).ToMillisF(),
                hist.max().ToMillisF());
    std::printf("  rotational delay:   mean=%.2fms max=%.2fms (one revolution = %.2fms)\n",
                rig.disk->rotational_delay_ms().mean(), rig.disk->rotational_delay_ms().max(),
                DiskParams::Hp97560().geometry.RotationTime().ToMillisF());
  }
  {
    Rig rig;
    LatencyHistogram hist;
    rig.sched->Spawn("seq", SequentialReads(&rig, 500, &hist));
    rig.sched->Run();
    std::printf("sequential 4KB reads: mean=%.2fms p50=%.2fms (read-ahead hits=%llu of %llu)\n",
                hist.mean().ToMillisF(), hist.Percentile(0.5).ToMillisF(),
                static_cast<unsigned long long>(rig.disk->cache_hit_reads()),
                static_cast<unsigned long long>(rig.disk->reads()));
  }
  {
    Rig rig;
    LatencyHistogram hist;
    rig.sched->Spawn("writes", ImmediateWrites(&rig, 500, &hist));
    rig.sched->Run();
    std::printf("paced 4KB writes:     mean=%.2fms p95=%.2fms (immediate-reported=%llu)\n",
                hist.mean().ToMillisF(), hist.Percentile(0.95).ToMillisF(),
                static_cast<unsigned long long>(rig.disk->immediate_writes()));
  }
  std::printf("# expected: random reads span ~2ms floor to ~one-rotation bump;\n");
  std::printf("# sequential reads and immediate writes sit near the 2ms decode floor.\n");
  return 0;
}
