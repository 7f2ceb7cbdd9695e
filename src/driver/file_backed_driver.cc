#include "driver/file_backed_driver.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <vector>

#include "obs/metrics.h"
#include "sched/mailbox.h"

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
  PFS_CHECK_MSG(in_flight_.requests.empty(),
                "file-backed driver dispatched a batch while one is in flight");
  PFS_CHECK(!batch.empty() && batch.size() <= kMaxBatch);
  Scheduler* s = sched();
  s->BeginExternalOp();
  for (size_t i = 0; i < batch.size(); ++i) {
    const IoRequest* req = batch[i];
    BatchIo& desc = in_flight_.descs[i];
    desc = BatchIo{};
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
  // The worker's frame keeps `batch` alive, and this frame `batch_done`,
  // until the completion node has run.
  Notification batch_done(s);
  in_flight_.requests = batch;
  in_flight_.done = &batch_done;
  in_flight_.batch = std::span<BatchIo>(in_flight_.descs.data(), batch.size());
  in_flight_.on_complete = &InFlight::EngineDone;
  in_flight_.submit_ns = MonotonicNanos();
  executor_->SubmitBatch(&in_flight_);
  co_await batch_done.Wait();
}

void FileBackedDriver::InFlight::EngineDone(IoExecutor::Job* job) {
  // Stamp the submit time here and deliver everything on the scheduler
  // thread, so all request and histogram mutation stays single-threaded.
  auto* self = static_cast<InFlight*>(job);
  self->elapsed_ns = static_cast<uint64_t>(MonotonicNanos() - self->submit_ns);
  self->driver_->sched()->PostNode(self);  // last access: it may rerun at once
}

void FileBackedDriver::InFlight::Run() {
  Scheduler* s = driver_->sched();
  const TimePoint now = s->Now();
  for (size_t i = 0; i < requests.size(); ++i) {
    requests[i]->result = std::move(descs[i].result);
    requests[i]->complete_time = now;
    requests[i]->done.Notify();
  }
  driver_->submit_->Record(elapsed_ns);
  requests = {};
  done->Notify();
  s->EndExternalOp();
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
