// Simulated disk-driver (paper §4): same interface as the real driver; the
// difference is internal. A dispatch acquires the host/disk connection,
// simulates sending the command (plus data for writes), releases the
// connection, activates the request on the simulated disk, and waits for the
// disk to respond. "The system itself does not know it is communicating with
// a 'fake' disk."
#ifndef PFS_DRIVER_SIM_DISK_DRIVER_H_
#define PFS_DRIVER_SIM_DISK_DRIVER_H_

#include <string>

#include "bus/connection.h"
#include "disk/disk_model.h"
#include "driver/disk_driver.h"

namespace pfs {

class SimDiskDriver final : public QueueingDiskDriver {
 public:
  SimDiskDriver(Scheduler* sched, MetricRegistry* metrics, std::string name,
                DiskModel* disk, Connection* bus,
                QueueSchedPolicy policy = QueueSchedPolicy::kClook)
      : QueueingDiskDriver(sched, metrics, std::move(name), policy),
        disk_(disk),
        bus_(bus) {}

  uint64_t total_sectors() const override { return disk_->params().geometry.TotalSectors(); }
  uint32_t sector_bytes() const override { return disk_->params().geometry.sector_bytes; }

 protected:
  // A batch of one: MaxBatchSize() stays 1, so one request is outstanding
  // at the disk at a time (its own cache provides the overlap).
  Task<> DispatchBatch(std::span<IoRequest* const> batch) override;

 private:
  // SCSI command block size for the command phase.
  static constexpr uint64_t kCommandBytes = 32;

  DiskModel* disk_;
  Connection* bus_;
};

}  // namespace pfs

#endif  // PFS_DRIVER_SIM_DISK_DRIVER_H_
