// SCSI-2 bus model: 10 MB/s shared medium, FIFO arbitration,
// disconnect/reconnect per phase (paper §4, "Connections").
#ifndef PFS_BUS_SCSI_BUS_H_
#define PFS_BUS_SCSI_BUS_H_

#include <string>

#include "bus/connection.h"
#include "sched/sync.h"
#include "stats/histogram.h"
#include "stats/registry.h"

namespace pfs {

class ScsiBus final : public Connection, public StatSource {
 public:
  struct Params {
    // SCSI-2 fast: 10 MB/s (decimal megabytes, as the paper states).
    uint64_t bandwidth_bytes_per_sec = 10 * 1000 * 1000;
    // Arbitration + (re)selection overhead per acquisition.
    Duration arbitration_delay = Duration::Micros(10);
  };

  ScsiBus(Scheduler* sched, std::string name);  // default Params
  ScsiBus(Scheduler* sched, std::string name, Params params);

  Task<> Acquire() override;
  void Release() override;
  Task<> Transfer(uint64_t bytes) override;
  Duration TransferTime(uint64_t bytes) const override;

  // StatSource
  std::string stat_name() const override { return "bus." + name_; }
  std::string StatJson() const override;

  const std::string& name() const { return name_; }
  uint64_t acquisitions() const { return acquisitions_.value(); }
  uint64_t bytes_transferred() const { return bytes_transferred_; }
  Duration busy_time() const { return busy_time_; }

  // Utilization over the scheduler's lifetime so far, in [0,1].
  double Utilization() const;

 private:
  Scheduler* sched_;
  std::string name_;
  Params params_;
  Semaphore owner_;  // 1 = free

  Counter acquisitions_;
  uint64_t bytes_transferred_ = 0;
  Duration busy_time_;                 // time held (arbitration + transfers)
  TimePoint acquired_at_;
  Histogram wait_time_us_;             // arbitration wait, microseconds
};

}  // namespace pfs

#endif  // PFS_BUS_SCSI_BUS_H_
