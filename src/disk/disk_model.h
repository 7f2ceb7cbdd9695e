// Simulated disk (paper §4, "Simulated disks"): a separate thread of control
// models the mechanism — command decode, seek, rotational delay, media
// transfer — and responds to the driver over the shared host/disk connection.
// The model knows heads, tracks, sectors, rotational speed, controller
// overhead and implements the HP 97560's cache policies: immediate-reported
// writes (complete once data is in the 128 KB disk cache) and 4 KB
// read-ahead when the queue drains.
#ifndef PFS_DISK_DISK_MODEL_H_
#define PFS_DISK_DISK_MODEL_H_

#include <string>

#include "bus/connection.h"
#include "core/ring_queue.h"
#include "disk/geometry.h"
#include "disk/io_request.h"
#include "disk/seek_model.h"
#include "sched/event.h"
#include "sched/scheduler.h"
#include "stats/histogram.h"
#include "stats/registry.h"

namespace pfs {

struct DiskParams {
  std::string model_name;
  DiskGeometry geometry;
  TwoRangeSeekModel::Params seek;
  Duration head_switch;          // head/track switch time
  Duration controller_overhead;  // SCSI command decode + setup
  uint32_t cache_bytes;          // on-board cache
  bool immediate_report_writes;  // complete writes from the cache
  uint32_t read_ahead_bytes;     // prefetch window when idle; 0 disables

  // HP 97560: 1.3 GB, 1962 cyl x 19 heads x 72 sectors x 512 B, 4002 rpm.
  // Seek curve and geometry from Ruemmler & Wilkes (IEEE Computer '94) and
  // Kotz et al. (Dartmouth TR94-220), the same sources the paper cites.
  static DiskParams Hp97560();

  // HP C3323A: the faster mid-90s 3.5" profile from the same Ruemmler &
  // Wilkes survey — 1.0 GB, 5400 rpm, quicker arm, bigger cache. Roughly
  // half the per-request mechanical latency of the 97560.
  static DiskParams HpC3323A();

  // Small, fast, deterministic disk for unit tests: constant seek, no cache.
  static DiskParams SyntheticTest();
};

class DiskModel : public StatSource {
 public:
  // `bus` is the host/disk connection used for the response phase; the
  // driver handles the command/data-out phase itself.
  DiskModel(Scheduler* sched, std::string name, DiskParams params, Connection* bus);

  DiskModel(const DiskModel&) = delete;
  DiskModel& operator=(const DiskModel&) = delete;

  // Spawns the mechanism daemon; call once before submitting requests.
  void Start();

  // Hands a decoded request to the disk. Charges controller overhead, then
  // either completes it from the on-board cache (immediate-reported write /
  // read-ahead hit is flagged for the mechanism) or queues it for the
  // mechanism. Called by the driver with the bus released.
  Task<> Submit(IoRequest* req);

  const DiskParams& params() const { return params_; }
  const std::string& name() const { return name_; }

  // StatSource
  std::string stat_name() const override { return "disk." + name_; }
  std::string StatJson() const override;

  // Exposed counters for tests and experiment harnesses.
  uint64_t reads() const { return reads_.value(); }
  uint64_t writes() const { return writes_.value(); }
  uint64_t cache_hit_reads() const { return cache_hit_reads_.value(); }
  uint64_t immediate_writes() const { return immediate_writes_.value(); }
  uint64_t destages() const { return destages_.value(); }
  uint64_t prefetches() const { return prefetches_.value(); }
  const Histogram& rotational_delay_ms() const { return rot_delay_ms_; }
  const Histogram& seek_time_ms() const { return seek_ms_; }
  const LatencyHistogram& service_time() const { return service_time_; }

 private:
  struct InternalJob {
    uint64_t sector;
    uint32_t count;
  };

  Task<> Mechanism();
  Task<> ProcessExternal(IoRequest* req);
  // Seek + rotate + transfer for [sector, sector+count); fills the timing
  // breakdown out-params. Only external requests feed the seek/rotation
  // statistics plug-ins (`record_stats`); internal destage/prefetch work is
  // mechanically identical but not part of the observed request stream.
  Task<> MediaAccess(uint64_t sector, uint32_t count, bool record_stats, Duration* seek_out,
                     Duration* rot_out);
  Task<> Destage(const InternalJob& job);
  Task<> Prefetch();

  Duration RotationalDelayTo(uint32_t target_sector) const;
  bool ReadHitsCache(const IoRequest& req) const;

  Scheduler* sched_;
  std::string name_;
  DiskParams params_;
  TwoRangeSeekModel seek_model_;
  Connection* bus_;

  Event work_;
  RingQueue<IoRequest*> external_;
  RingQueue<InternalJob> destage_queue_;
  bool prefetch_armed_ = false;
  bool started_ = false;

  // Mechanical state.
  uint32_t current_cylinder_ = 0;
  uint32_t current_head_ = 0;

  // Cache state.
  uint64_t cache_used_bytes_ = 0;   // reserved by not-yet-destaged writes
  uint64_t read_ahead_start_ = 0;   // [start, end) sectors prefetched
  uint64_t read_ahead_end_ = 0;
  uint64_t last_read_end_ = 0;      // where the next prefetch would begin

  // Statistics.
  Counter reads_;
  Counter writes_;
  Counter cache_hit_reads_;
  Counter immediate_writes_;
  Counter destages_;
  Counter prefetches_;
  Histogram queue_depth_;  // requests already queued at each Submit
  Histogram rot_delay_ms_;
  Histogram seek_ms_;
  LatencyHistogram service_time_;
};

}  // namespace pfs

#endif  // PFS_DISK_DISK_MODEL_H_
