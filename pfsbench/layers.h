// Per-layer accounting read from outside the system: every number comes
// from a component's public accessors. A snapshot before a measured phase
// and one after give that phase's per-layer work as differences.
#ifndef PFSBENCH_LAYERS_H_
#define PFSBENCH_LAYERS_H_

#include <cstdint>
#include <vector>

#include "report.h"
#include "system/system_builder.h"

namespace pfsbench {

// Take only while every shard loop is quiescent (between Run calls).
struct LayerSnapshot {
  // sched: one entry per shard.
  std::vector<uint64_t> steps;
  std::vector<uint64_t> cross_posts;
  std::vector<int64_t> idle_ns;
  std::vector<std::vector<uint64_t>> mailbox_depth;  // log2 drain-depth buckets
  // cache, summed over the per-shard caches.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_flushed = 0;
  uint64_t cache_absorbed = 0;
  uint64_t cache_fills = 0;
  double cache_fill_ns = 0;
  // layout (LFS).
  uint64_t log_blocks = 0;
  uint64_t segments_cleaned = 0;
  uint64_t relocated = 0;
  // volume, over the per-file-system volumes.
  uint64_t vol_requests = 0;
  uint64_t vol_coalesced = 0;
  uint64_t vol_fanout_n = 0;
  double vol_fanout_sum = 0;
  uint64_t vol_latency_n = 0;
  double vol_latency_ns = 0;
  // driver, over every disk's driver.
  uint64_t drv_ops = 0;
  uint64_t drv_batches = 0;
  uint64_t drv_io_n = 0;
  double drv_io_ns = 0;
  uint64_t drv_wait_n = 0;
  double drv_wait_ns = 0;
  // disk and bus (simulated backend only).
  uint64_t disk_requests = 0;
  uint64_t disk_cache_hits = 0;
  uint64_t disk_service_n = 0;
  double disk_service_ns = 0;
  uint64_t disk_seek_n = 0;
  double disk_seek_ms = 0;
  std::vector<int64_t> bus_busy_ns;
  // Shard 0's clock (simulated time on Patsy).
  int64_t clock_ns = 0;
};

LayerSnapshot TakeSnapshot(pfs::System& sys);

// What the clients did during the phase, for the per-op normalisations.
struct PhaseWork {
  uint64_t calls = 0;
  uint64_t writes = 0;
  uint64_t write_bytes = 0;
  double wall_s = 0;
};

// Adds the accessor-derived per-layer metrics for the phase [a, b].
void AddLayerMetrics(const LayerSnapshot& a, const LayerSnapshot& b, const PhaseWork& work,
                     Report* report);

}  // namespace pfsbench

#endif  // PFSBENCH_LAYERS_H_
