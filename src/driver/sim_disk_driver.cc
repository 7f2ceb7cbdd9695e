#include "driver/sim_disk_driver.h"

namespace pfs {

Task<> SimDiskDriver::DispatchBatch(std::span<IoRequest* const> batch) {
  IoRequest* req = batch[0];
  // Command phase (and data-out phase for writes) on the shared connection.
  uint64_t out_bytes = kCommandBytes;
  if (req->op == IoOp::kWrite) {
    out_bytes += req->byte_count(sector_bytes());
  }
  co_await bus_->Acquire();
  co_await bus_->Transfer(out_bytes);
  bus_->Release();

  // Activate on the disk; the disk reconnects to respond and fires req->done.
  co_await disk_->Submit(req);
  co_await req->done.Wait();
}

}  // namespace pfs
