// The production disk-driver (paper §3): "uses a Unix-file (ordinary file,
// or raw-device) as back-end" with the same combined read-write queue and
// C-LOOK policy as the simulated driver. Batches of queued requests are
// submitted together through the IoExecutor's engine (preadv/pwritev pool
// or io_uring); completions return to the scheduler via PostNode().
//
// A driver has at most one batch in flight (the queue's worker awaits each
// dispatch before it drains the next), so the driver owns that batch: its
// descriptors, its executor job and the mailbox node that carries the
// completion back. The round trip to the pool allocates nothing.
#ifndef PFS_DRIVER_FILE_BACKED_DRIVER_H_
#define PFS_DRIVER_FILE_BACKED_DRIVER_H_

#include <array>
#include <memory>
#include <span>
#include <string>

#include "core/result.h"
#include "driver/disk_driver.h"
#include "driver/io_executor.h"
#include "sched/event.h"
#include "sched/mailbox.h"

namespace pfs {

class FileBackedDriver final : public QueueingDiskDriver {
 public:
  // The sector size the backing file is addressed in.
  static constexpr uint32_t kSectorBytes = 512;

  // One dispatch drains up to this many queued requests into one engine
  // batch (policy-ordered, so contiguous requests arrive adjacent and the
  // engine can vector them).
  static constexpr size_t kMaxBatch = 32;

  // Opens (creating and sizing if needed) `path` as the backing store.
  static Result<std::unique_ptr<FileBackedDriver>> Create(
      Scheduler* sched, MetricRegistry* metrics, std::string name,
      const std::string& path, uint64_t size_bytes, IoExecutor* executor,
      QueueSchedPolicy policy = QueueSchedPolicy::kClook);

  ~FileBackedDriver() override;

  uint64_t total_sectors() const override { return total_sectors_; }
  uint32_t sector_bytes() const override { return kSectorBytes; }

  // The engine actually performing this driver's I/O ("threadpool", "uring").
  const char* engine_name() const { return executor_->engine()->name(); }

  std::string StatJson() const override;

 protected:
  Task<> DispatchBatch(std::span<IoRequest* const> batch) override;
  size_t MaxBatchSize() const override { return kMaxBatch; }

 private:
  // The batch in flight: the executor job the pool runs, then the mailbox
  // node that brings its completion back to the scheduler thread.
  class InFlight final : public IoExecutor::Job, public MailboxNode {
   public:
    explicit InFlight(FileBackedDriver* driver) : driver_(driver) {}

    // Pool thread, once the engine is done: stamps the submit time and
    // posts this node home.
    static void EngineDone(IoExecutor::Job* job);

    // Scheduler thread: copies the results, stamps and wakes the requests.
    void Run() override;
    // A torn-down mailbox: the node is the driver's, there is nothing to free.
    void Drop() override {}

    std::array<BatchIo, kMaxBatch> descs;
    std::span<IoRequest* const> requests;  // empty while no batch is in flight
    Notification* done = nullptr;          // in the dispatching frame
    int64_t submit_ns = 0;                 // MonotonicNanos() at submit
    uint64_t elapsed_ns = 0;               // submit to engine completion

   private:
    FileBackedDriver* const driver_;
  };

  FileBackedDriver(Scheduler* sched, MetricRegistry* metrics, std::string name, int fd,
                   uint64_t total_sectors, IoExecutor* executor, QueueSchedPolicy policy);

  int fd_;
  uint64_t total_sectors_;
  IoExecutor* executor_;
  // Wall time from handing a batch to the executor to its engine completion
  // (pool wait + submission syscalls + device time), in nanoseconds.
  HistogramMetric* submit_;
  InFlight in_flight_{this};
};

}  // namespace pfs

#endif  // PFS_DRIVER_FILE_BACKED_DRIVER_H_
