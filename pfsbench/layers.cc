#include "layers.h"

#include <algorithm>
#include <string>

#include "layout/lfs_layout.h"

namespace pfsbench {
namespace {

// Sum of a LatencyHistogram's samples, rebuilt from its exact mean.
double TotalNs(const pfs::LatencyHistogram& h) {
  return static_cast<double>(h.mean().nanos()) * static_cast<double>(h.count());
}

// Upper bound (in posts) of the log2 bucket holding the phase's p99 drain
// depth; 0 when the mailbox was never drained.
double DepthP99(const std::vector<uint64_t>& a, const std::vector<uint64_t>& b) {
  uint64_t total = 0;
  for (size_t i = 0; i < b.size(); ++i) {
    total += b[i] - a[i];
  }
  if (total == 0) {
    return 0;
  }
  const double target = 0.99 * static_cast<double>(total);
  uint64_t seen = 0;
  for (size_t i = 0; i < b.size(); ++i) {
    seen += b[i] - a[i];
    if (static_cast<double>(seen) >= target) {
      return static_cast<double>(uint64_t{1} << i);
    }
  }
  return static_cast<double>(uint64_t{1} << (b.size() - 1));
}

}  // namespace

LayerSnapshot TakeSnapshot(pfs::System& sys) {
  LayerSnapshot s;
  for (int i = 0; i < sys.shard_count(); ++i) {
    pfs::Scheduler* sched = sys.shard_scheduler(i);
    s.steps.push_back(sched->context_switches());
    s.cross_posts.push_back(sched->cross_posts_sent());
    s.idle_ns.push_back(sched->idle_nanos());
    std::vector<uint64_t> depth(pfs::kMailboxDepthBuckets);
    for (size_t b = 0; b < depth.size(); ++b) {
      depth[b] = sched->mailbox_depth_bucket(b);
    }
    s.mailbox_depth.push_back(std::move(depth));
    pfs::BufferCache* cache = sys.shard_cache(i);
    s.cache_hits += cache->hits();
    s.cache_misses += cache->misses();
    s.cache_evictions += cache->evictions();
    s.cache_flushed += cache->blocks_flushed();
    s.cache_absorbed += cache->absorbed_dirty_blocks();
    s.cache_fills += cache->fill_latency().count();
    s.cache_fill_ns += TotalNs(cache->fill_latency());
  }
  for (int f = 0; f < sys.filesystem_count(); ++f) {
    if (auto* lfs = dynamic_cast<pfs::LfsLayout*>(sys.layout(f)); lfs != nullptr) {
      s.log_blocks += lfs->log_blocks_written();
      s.segments_cleaned += lfs->segments_cleaned();
      s.relocated += lfs->blocks_relocated();
    }
  }
  for (const auto& volume : sys.volumes()) {
    s.vol_requests += volume->requests();
    s.vol_coalesced += volume->coalesced_fragments();
    s.vol_fanout_n += volume->fanout_width().count();
    s.vol_fanout_sum +=
        volume->fanout_width().mean() * static_cast<double>(volume->fanout_width().count());
    s.vol_latency_n += volume->latency().count();
    s.vol_latency_ns += TotalNs(volume->latency());
  }
  for (const auto& driver : sys.drivers()) {
    s.drv_ops += driver->ops_completed();
    s.drv_batches += driver->batches();
    s.drv_io_n += driver->io_latency().count();
    s.drv_io_ns += TotalNs(driver->io_latency());
    s.drv_wait_n += driver->queue_wait().count();
    s.drv_wait_ns += TotalNs(driver->queue_wait());
  }
  for (const auto& disk : sys.disks()) {
    s.disk_requests += disk->reads() + disk->writes();
    s.disk_cache_hits += disk->cache_hit_reads();
    s.disk_service_n += disk->service_time().count();
    s.disk_service_ns += TotalNs(disk->service_time());
    s.disk_seek_n += disk->seek_time_ms().count();
    s.disk_seek_ms +=
        disk->seek_time_ms().mean() * static_cast<double>(disk->seek_time_ms().count());
  }
  for (const auto& bus : sys.busses()) {
    s.bus_busy_ns.push_back(bus->busy_time().nanos());
  }
  s.clock_ns = sys.scheduler()->Now().nanos();
  return s;
}

void AddLayerMetrics(const LayerSnapshot& a, const LayerSnapshot& b, const PhaseWork& work,
                     Report* report) {
  const double calls = static_cast<double>(work.calls);
  const double writes = static_cast<double>(work.writes);

  uint64_t steps = 0;
  uint64_t cross = 0;
  double idle_frac = 0;
  double depth_p99 = 0;
  for (size_t i = 0; i < b.steps.size(); ++i) {
    steps += b.steps[i] - a.steps[i];
    cross += b.cross_posts[i] - a.cross_posts[i];
    idle_frac = std::max(idle_frac, Ratio(static_cast<double>(b.idle_ns[i] - a.idle_ns[i]),
                                          work.wall_s * 1e9));
    depth_p99 = std::max(depth_p99, DepthP99(a.mailbox_depth[i], b.mailbox_depth[i]));
  }
  report->Add("sched.steps_per_op", Ratio(static_cast<double>(steps), calls), "count",
              "coroutine resumes per client call, all shards");
  report->Add("sched.cross_posts_per_op", Ratio(static_cast<double>(cross), calls), "count");
  report->Add("sched.mailbox_depth_p99", depth_p99, "count", "max over shards");
  report->Add("sched.idle_frac", idle_frac, "ratio", "max over shards; real clock only");

  const uint64_t hits = b.cache_hits - a.cache_hits;
  const uint64_t misses = b.cache_misses - a.cache_misses;
  const uint64_t flushed = b.cache_flushed - a.cache_flushed;
  const uint64_t absorbed = b.cache_absorbed - a.cache_absorbed;
  const uint64_t fills = b.cache_fills - a.cache_fills;
  report->Add("cache.hit_ratio",
              Ratio(static_cast<double>(hits), static_cast<double>(hits + misses)), "ratio");
  report->Add("cache.evictions_per_op",
              Ratio(static_cast<double>(b.cache_evictions - a.cache_evictions), calls), "count");
  report->Add("cache.fill_mean_us", Ratio(b.cache_fill_ns - a.cache_fill_ns, 1e3 * fills), "us",
              "n=" + std::to_string(fills));
  report->Add("cache.flushed_per_write", Ratio(static_cast<double>(flushed), writes), "count");
  report->Add("cache.absorbed_ratio",
              Ratio(static_cast<double>(absorbed), static_cast<double>(absorbed + flushed)),
              "ratio", "dirty blocks that died in memory / dirty blocks retired");

  const double log_blocks = static_cast<double>(b.log_blocks - a.log_blocks);
  report->Add("layout.log_blocks_per_write", Ratio(log_blocks, writes), "count");
  report->Add("layout.write_amp",
              Ratio(log_blocks * pfs::kDefaultBlockSize, static_cast<double>(work.write_bytes)),
              "ratio", "log bytes written / client bytes written");
  report->Add("layout.segments_cleaned",
              static_cast<double>(b.segments_cleaned - a.segments_cleaned), "count");
  report->Add("layout.relocated_per_write",
              Ratio(static_cast<double>(b.relocated - a.relocated), writes), "count");

  const uint64_t vol_requests = b.vol_requests - a.vol_requests;
  report->Add("volume.fanout_mean",
              Ratio(b.vol_fanout_sum - a.vol_fanout_sum,
                    static_cast<double>(b.vol_fanout_n - a.vol_fanout_n)),
              "count", "members touched per volume request");
  report->Add("volume.coalesced_per_req",
              Ratio(static_cast<double>(b.vol_coalesced - a.vol_coalesced),
                    static_cast<double>(vol_requests)),
              "count");
  report->Add("volume.latency_mean_us",
              Ratio(b.vol_latency_ns - a.vol_latency_ns,
                    1e3 * static_cast<double>(b.vol_latency_n - a.vol_latency_n)),
              "us", "n=" + std::to_string(b.vol_latency_n - a.vol_latency_n));

  const uint64_t drv_ops = b.drv_ops - a.drv_ops;
  report->Add("driver.ios_per_op", Ratio(static_cast<double>(drv_ops), calls), "count");
  report->Add("driver.reqs_per_batch",
              Ratio(static_cast<double>(drv_ops),
                    static_cast<double>(b.drv_batches - a.drv_batches)),
              "count");
  report->Add("driver.queue_wait_mean_us",
              Ratio(b.drv_wait_ns - a.drv_wait_ns,
                    1e3 * static_cast<double>(b.drv_wait_n - a.drv_wait_n)),
              "us");
  report->Add("driver.io_mean_us",
              Ratio(b.drv_io_ns - a.drv_io_ns, 1e3 * static_cast<double>(b.drv_io_n - a.drv_io_n)),
              "us", "n=" + std::to_string(b.drv_io_n - a.drv_io_n));

  const uint64_t disk_requests = b.disk_requests - a.disk_requests;
  report->Add("disk.requests_per_op", Ratio(static_cast<double>(disk_requests), calls), "count",
              "simulated backend only");
  report->Add("disk.cache_hit_ratio",
              Ratio(static_cast<double>(b.disk_cache_hits - a.disk_cache_hits),
                    static_cast<double>(disk_requests)),
              "ratio");
  report->Add("disk.service_ms_mean",
              Ratio(b.disk_service_ns - a.disk_service_ns,
                    1e6 * static_cast<double>(b.disk_service_n - a.disk_service_n)),
              "ms");
  report->Add("disk.seek_ms_mean",
              Ratio(b.disk_seek_ms - a.disk_seek_ms,
                    static_cast<double>(b.disk_seek_n - a.disk_seek_n)),
              "ms");
  report->Add("disk.wall_ns_per_request",
              Ratio(work.wall_s * 1e9, static_cast<double>(disk_requests)), "ns",
              "wall time / simulated disk requests");

  const double sim_ns = static_cast<double>(b.clock_ns - a.clock_ns);
  double busy_frac = 0;
  for (size_t i = 0; i < b.bus_busy_ns.size(); ++i) {
    busy_frac = std::max(
        busy_frac, Ratio(static_cast<double>(b.bus_busy_ns[i] - a.bus_busy_ns[i]), sim_ns));
  }
  report->Add("bus.busy_frac", busy_frac, "ratio", "max over busses, of simulated time");
}

}  // namespace pfsbench
