// Disk-drivers (paper §3/§4): a combined read-write queue per disk, a
// pluggable queue-scheduling policy (C-LOOK by default, as in the paper's
// only production driver), and a device-specific dispatch hook.
//
// The queueing, measurement, and policy code is identical for the simulated
// driver (SimDiskDriver: bus protocol + DiskModel) and the real driver
// (FileBackedDriver: a Unix file as back-end) — this symmetry is the
// cut-and-paste property the paper is about.
#ifndef PFS_DRIVER_DISK_DRIVER_H_
#define PFS_DRIVER_DISK_DRIVER_H_

#include <string>
#include <vector>

#include "disk/io_request.h"
#include "obs/metrics.h"
#include "sched/scheduler.h"
#include "stats/histogram.h"
#include "stats/registry.h"
#include "volume/block_device.h"

namespace pfs {

// Queue-scheduling policies (paper §3 cites SCAN, C-SCAN, LOOK, C-LOOK).
// The arm-positioning cost of sweeping to the physical edge is modelled by
// the disk itself, so SCAN behaves as LOOK and C-SCAN as C-LOOK here.
enum class QueueSchedPolicy : uint8_t { kFcfs, kSstf, kScan, kCscan, kLook, kClook };

// The registry name of `p`; QueuePolicyRegistry resolves names back.
const char* QueueSchedPolicyName(QueueSchedPolicy p);

// Base driver: owns the I/O queue and its scheduling policy; derived classes
// implement DispatchBatch() for their device. One batch is outstanding at
// the device at a time. A driver is the volume layer's leaf device: it
// satisfies the BlockDevice contract directly, so layouts (through volumes)
// never see which driver backs them.
class QueueingDiskDriver : public BlockDevice, public StatSource {
 public:
  // Counts requests, dispatches, queue waits and latencies in `metrics`
  // under a {disk="<name>"} label.
  QueueingDiskDriver(Scheduler* sched, MetricRegistry* metrics, std::string name,
                     QueueSchedPolicy policy);

  // Spawns the driver's worker daemon; call once.
  void Start();

  Task<Status> Read(uint64_t sector, uint32_t count, std::span<std::byte> out) override;
  Task<Status> Write(uint64_t sector, uint32_t count, std::span<const std::byte> in) override;

  const std::string& name() const { return name_; }
  QueueSchedPolicy policy() const { return policy_; }
  size_t queue_length() const { return queue_.size(); }
  size_t QueueDepthHint() const override { return queue_.size(); }

  // StatSource
  std::string stat_name() const override { return "driver." + name_; }
  std::string StatJson() const override;

  uint64_t ops_completed() const { return latency_->Count(); }
  const Histogram& queue_length_hist() const { return queue_len_; }
  // Request latency and queue wait.
  LatencyHistogram io_latency() const { return latency_->Snapshot(); }
  LatencyHistogram queue_wait() const { return queue_wait_->Snapshot(); }

  uint64_t batches() const { return batches_->Total(); }

 protected:
  Scheduler* sched() { return sched_; }

  // Performs a policy-ordered batch of at most MaxBatchSize() requests on
  // the device and returns when every one completed (each request's result
  // and complete_time filled in).
  virtual Task<> DispatchBatch(std::span<IoRequest* const> batch) = 0;

  // How many queued requests one dispatch may drain (1 = no batching). The
  // picks stay policy-ordered: each drain continues the sweep from the
  // previous pick's sector.
  virtual size_t MaxBatchSize() const { return 1; }

 private:
  Task<Status> Submit(IoRequest* req);
  Task<> Worker();
  size_t PickNextIndex();

  Scheduler* sched_;
  std::string name_;
  QueueSchedPolicy policy_;
  bool started_ = false;

  std::vector<IoRequest*> queue_;  // arrival order; policy picks an index
  Event work_;
  uint64_t head_position_ = 0;  // sector of the last dispatched request
  int sweep_direction_ = 1;     // for SCAN/LOOK

  // Batches are device dispatches (>= 1 request each); the latency
  // histogram's count is the completed-ops count.
  CounterMetric* reads_;
  CounterMetric* writes_;
  CounterMetric* batches_;
  GaugeMetric* queue_depth_;
  HistogramMetric* batch_size_;
  HistogramMetric* queue_wait_;
  HistogramMetric* latency_;
  Histogram queue_len_;  // requests already queued at each enqueue
};

}  // namespace pfs

#endif  // PFS_DRIVER_DISK_DRIVER_H_
