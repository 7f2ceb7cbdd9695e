// A small pool of OS threads for blocking system calls (pread/pwrite) made
// on behalf of the on-line system, keeping the cooperative scheduler thread
// responsive. Completions are delivered back via Scheduler::Post.
//
// Batches go through a pluggable IoEngine (io_engine.h): the portable
// thread-pool engine issues preadv/pwritev on the pool thread; the io_uring
// engine submits the whole batch with one syscall. Either way the pool
// thread blocks for the batch and then runs the single completion callback.
//
// An idle worker spins on the queue length for kIdleSpinNanos before it
// parks, and a submitter notifies only when some worker is parked, so a
// steady stream of batches costs one locked push each and no futex wakes.
#ifndef PFS_DRIVER_IO_EXECUTOR_H_
#define PFS_DRIVER_IO_EXECUTOR_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "driver/io_engine.h"

namespace pfs {

class IoExecutor {
 public:
  // `engine` performs the batches; nullptr selects ThreadPoolIoEngine.
  explicit IoExecutor(int num_threads = 2, std::unique_ptr<IoEngine> engine = nullptr);
  ~IoExecutor();

  IoExecutor(const IoExecutor&) = delete;
  IoExecutor& operator=(const IoExecutor&) = delete;

  // Performs every descriptor of `batch` on a pool thread through the
  // engine, then runs `on_complete` (still on the pool thread — it is
  // responsible for posting back to the scheduler). The caller keeps the
  // descriptor storage alive until `on_complete` runs; per-descriptor
  // results land in BatchIo::result.
  void SubmitBatch(std::span<BatchIo> batch, std::function<void()> on_complete);

  IoEngine* engine() const { return engine_.get(); }

 private:
  struct Job {
    std::span<BatchIo> batch;
    std::function<void()> on_complete;
  };

  void WorkerLoop();

  std::unique_ptr<IoEngine> engine_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Job> queue_;
  std::atomic<size_t> queued_{0};  // queue_.size(), readable without mu_
  int parked_ = 0;                 // workers waiting on cv_; guarded by mu_
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

}  // namespace pfs

#endif  // PFS_DRIVER_IO_EXECUTOR_H_
