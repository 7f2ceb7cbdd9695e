#include "driver/io_executor.h"

#include "sched/mailbox.h"

namespace pfs {

IoExecutor::IoExecutor(int num_threads, std::unique_ptr<IoEngine> engine)
    : engine_(engine != nullptr ? std::move(engine)
                                : std::make_unique<ThreadPoolIoEngine>()) {
  threads_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

IoExecutor::~IoExecutor() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_.store(true);
  }
  cv_.notify_all();
  for (auto& t : threads_) {
    t.join();
  }
}

void IoExecutor::SubmitBatch(Job* job) {
  job->next_ = nullptr;
  bool wake = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    (tail_ != nullptr ? tail_->next_ : head_) = job;
    tail_ = job;
    queued_.store(queued_.load(std::memory_order_relaxed) + 1,
                  std::memory_order_release);
    submits_.store(submits_.load(std::memory_order_relaxed) + 1,
                   std::memory_order_release);
    // A worker counted in parked_ checked the queue under mu_ before this
    // push and is (or is about to be) inside cv_.wait; one that is not
    // counted will see the job when it next takes mu_.
    wake = parked_ > 0;
  }
  if (wake) {
    cv_.notify_one();
  }
}

void IoExecutor::WorkerLoop() {
  for (;;) {
    // The spin window starts when this worker finishes a job. A job seen but
    // taken by another worker first restarts it, so the worker parks only
    // after a whole window passes with no job seen: a steady stream that two
    // workers split keeps both of them spinning, and submitters wake nobody.
    // The submit count, not the queue length, is what tells a job was seen:
    // the worker that just finished often takes the next job before the
    // other one's next poll finds it queued.
    int64_t window_end = MonotonicNanos() + kIdleSpinNanos;
    uint64_t submits = submits_.load(std::memory_order_acquire);
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lk(mu_, std::defer_lock);
      for (;;) {
        const bool seen = SpinUntil(window_end, [this, submits] {
          return queued_.load(std::memory_order_acquire) > 0 ||
                 submits_.load(std::memory_order_acquire) != submits || stop_.load();
        });
        lk.lock();
        if (head_ != nullptr || stop_.load()) {
          break;
        }
        if (!seen) {
          ++parked_;
          ++parks_;
          cv_.wait(lk, [this] { return stop_.load() || head_ != nullptr; });
          --parked_;
          break;
        }
        submits = submits_.load(std::memory_order_relaxed);
        lk.unlock();  // lost the job to another worker: spin on
        window_end = MonotonicNanos() + kIdleSpinNanos;
      }
      if (head_ == nullptr) {
        return;  // stopped and drained
      }
      job = head_;
      head_ = job->next_;
      if (head_ == nullptr) {
        tail_ = nullptr;
      }
      queued_.store(queued_.load(std::memory_order_relaxed) - 1,
                    std::memory_order_release);
    }
    engine_->RunBatch(job->batch);
    job->on_complete(job);  // may resubmit or free the job
  }
}

}  // namespace pfs
