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

void IoExecutor::SubmitBatch(std::span<BatchIo> batch, std::function<void()> on_complete) {
  bool wake = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    queue_.push_back(Job{batch, std::move(on_complete)});
    queued_.store(queue_.size(), std::memory_order_release);
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
    SpinUntil(MonotonicNanos() + kIdleSpinNanos, [this] {
      return queued_.load(std::memory_order_acquire) > 0 || stop_.load();
    });
    Job job;
    {
      std::unique_lock<std::mutex> lk(mu_);
      if (queue_.empty() && !stop_.load()) {
        ++parked_;
        cv_.wait(lk, [this] { return stop_.load() || !queue_.empty(); });
        --parked_;
      }
      if (queue_.empty()) {
        return;  // stopped and drained
      }
      job = std::move(queue_.front());
      queue_.pop_front();
      queued_.store(queue_.size(), std::memory_order_release);
    }
    engine_->RunBatch(job.batch);
    job.on_complete();
  }
}

}  // namespace pfs
