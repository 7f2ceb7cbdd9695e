// A small pool of OS threads for blocking system calls (pread/pwrite) made
// on behalf of the on-line system, keeping the cooperative scheduler thread
// responsive. Completions are delivered back via Scheduler::PostNode.
//
// Batches go through a pluggable IoEngine (io_engine.h): the portable
// thread-pool engine issues preadv/pwritev on the pool thread; the io_uring
// engine submits the whole batch with one syscall. Either way the pool
// thread blocks for the batch and then runs the job's completion function.
//
// The queue is intrusive: a Job is a node the submitter owns (the
// file-backed driver keeps one per driver, next to its descriptors), so a
// submit and a completion allocate nothing on either side.
//
// A worker spins on the queue length after each job and parks only once a
// whole kIdleSpinNanos window passes with no job seen; a job another worker
// took first restarts the window. A submitter notifies only when some worker
// is parked, so a steady stream of batches costs one locked push each and no
// futex wakes.
#ifndef PFS_DRIVER_IO_EXECUTOR_H_
#define PFS_DRIVER_IO_EXECUTOR_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "driver/io_engine.h"

namespace pfs {

class IoExecutor {
 public:
  // One batch: the submitter fills `batch` and `on_complete` and keeps the
  // job and the descriptors alive until `on_complete` runs. That runs on
  // the pool thread once the engine has filled every BatchIo::result; it is
  // responsible for posting back to the scheduler, and may reuse the job.
  struct Job {
    std::span<BatchIo> batch;
    void (*on_complete)(Job* job) = nullptr;

   private:
    friend class IoExecutor;
    Job* next_ = nullptr;  // queue link, guarded by mu_
  };

  // `engine` performs the batches; nullptr selects ThreadPoolIoEngine.
  explicit IoExecutor(int num_threads = 2, std::unique_ptr<IoEngine> engine = nullptr);
  ~IoExecutor();

  IoExecutor(const IoExecutor&) = delete;
  IoExecutor& operator=(const IoExecutor&) = delete;

  // Queues `job` behind every job submitted before it. Allocates nothing.
  void SubmitBatch(Job* job);

  IoEngine* engine() const { return engine_.get(); }

 private:
  friend class IoExecutorTestPeer;

  void WorkerLoop();

  std::unique_ptr<IoEngine> engine_;
  std::mutex mu_;
  std::condition_variable cv_;
  Job* head_ = nullptr;  // FIFO of submitted jobs; guarded by mu_
  Job* tail_ = nullptr;
  std::atomic<size_t> queued_{0};  // jobs in the FIFO, readable without mu_
  std::atomic<uint64_t> submits_{0};  // jobs ever submitted; written under mu_
  int parked_ = 0;                 // workers waiting on cv_; guarded by mu_
  uint64_t parks_ = 0;             // times a worker parked; guarded by mu_
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

}  // namespace pfs

#endif  // PFS_DRIVER_IO_EXECUTOR_H_
