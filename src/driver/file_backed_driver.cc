#include "driver/file_backed_driver.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "obs/metrics.h"

namespace pfs {

FileBackedDriver::FileBackedDriver(Scheduler* sched, MetricRegistry* metrics,
                                   std::string name, int fd, uint64_t total_sectors,
                                   IoExecutor* executor, QueueSchedPolicy policy)
    : QueueingDiskDriver(sched, metrics, std::move(name), policy),
      fd_(fd),
      total_sectors_(total_sectors),
      executor_(executor),
      submit_(metrics->Histogram("disk_submit_seconds",
                                 "Executor handoff to engine completion",
                                 "disk=\"" + this->name() + "\"", /*scale=*/1e-9)) {}

Result<std::unique_ptr<FileBackedDriver>> FileBackedDriver::Create(
    Scheduler* sched, MetricRegistry* metrics, std::string name, const std::string& path,
    uint64_t size_bytes, IoExecutor* executor, QueueSchedPolicy policy) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    return Status(ErrorCode::kIoError, "open " + path + ": " + std::strerror(errno));
  }
  if (::ftruncate(fd, static_cast<off_t>(size_bytes)) != 0) {
    ::close(fd);
    return Status(ErrorCode::kIoError, "ftruncate " + path + ": " + std::strerror(errno));
  }
  auto driver = std::unique_ptr<FileBackedDriver>(new FileBackedDriver(
      sched, metrics, std::move(name), fd, size_bytes / kSectorBytes, executor, policy));
  return driver;
}

FileBackedDriver::~FileBackedDriver() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Task<> FileBackedDriver::DispatchBatch(std::span<IoRequest* const> batch) {
  Scheduler* s = sched();
  s->BeginExternalOp();
  // Descriptor storage lives in this frame; the frame outlives the engine
  // (the final co_await resumes only after the completion Post ran).
  std::vector<BatchIo> descs(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const IoRequest* req = batch[i];
    BatchIo& desc = descs[i];
    desc.op = req->op;
    desc.fd = fd_;
    desc.offset = req->sector * kSectorBytes;
    const size_t bytes = static_cast<size_t>(req->sector_count) * kSectorBytes;
    if (req->op == IoOp::kRead) {
      PFS_CHECK_MSG(req->read_buf.size() >= bytes, "read buffer too small");
      desc.read_buf = req->read_buf.subspan(0, bytes);
    } else {
      PFS_CHECK_MSG(req->write_buf.size() >= bytes, "write buffer too small");
      desc.write_buf = req->write_buf.subspan(0, bytes);
    }
  }
  Notification batch_done(s);
  const auto t0 = std::chrono::steady_clock::now();
  executor_->SubmitBatch(descs, [this, s, batch, &descs, &batch_done, t0] {
    // Pool thread: the engine has filled every desc.result. Stamp the
    // submit time here and deliver everything on the scheduler thread, so
    // all request and histogram mutation stays single-threaded.
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    const auto ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
    // Synchronous handoff: the submitting coroutine frame (which owns descs
    // and batch_done) stays suspended on batch_done.Wait() below until this
    // callback runs, so the by-ref captures cannot dangle.
    // pfs-lint: allow(ref-capture-escape)
    s->Post([this, s, batch, &descs, &batch_done, ns] {
      for (size_t i = 0; i < batch.size(); ++i) {
        batch[i]->result = descs[i].result;
        batch[i]->complete_time = s->Now();
        batch[i]->done.Notify();
      }
      submit_->Record(ns);
      batch_done.Notify();
      s->EndExternalOp();
    });
  });
  co_await batch_done.Wait();
}

std::string FileBackedDriver::StatJson() const {
  std::string out = QueueingDiskDriver::StatJson();
  out.pop_back();  // extend the base object in place
  const std::vector<uint64_t> bins = submit_->Bins();
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                ",\"engine\":\"%s\",\"submit_us\":{\"mean\":%.1f,\"p50\":%.1f,\"p95\":%.1f,"
                "\"p99\":%.1f}}",
                engine_name(), submit_->Mean() / 1e3,
                static_cast<double>(HistPercentile(bins, 0.5)) / 1e3,
                static_cast<double>(HistPercentile(bins, 0.95)) / 1e3,
                static_cast<double>(HistPercentile(bins, 0.99)) / 1e3);
  return out + buf;
}

}  // namespace pfs
