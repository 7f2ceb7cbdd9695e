// The I/O engine: how a batch of file reads/writes reaches the kernel on
// behalf of the on-line (file-backed) driver stack. Contiguous same-op runs
// of a batch go through one preadv/pwritev; everything else through plain
// pread/pwrite.
//
// The engine is registered by name in IoEngineRegistry ("threadpool") and
// the scenario's `system.io_engine` key must name it.
//
// Every transfer loops until the full count is moved: a short read/write is
// continued from where it stopped, EINTR retries, and a zero-byte read
// (EOF inside the image file) fails the descriptor with a Status instead of
// silently returning partial data.
#ifndef PFS_DRIVER_IO_ENGINE_H_
#define PFS_DRIVER_IO_ENGINE_H_

#include <cstdint>
#include <span>

#include "core/status.h"
#include "disk/io_request.h"

namespace pfs {

// One descriptor of a batch: a read into `read_buf` or a write from
// `write_buf` at byte `offset` of `fd`. The engine fills `result`.
struct BatchIo {
  IoOp op = IoOp::kRead;
  int fd = -1;
  uint64_t offset = 0;
  std::span<std::byte> read_buf;         // read target (op == kRead)
  std::span<const std::byte> write_buf;  // write source (op == kWrite)
  Status result;
};

// A blocking batch performer. RunBatch is invoked from IoExecutor pool
// threads; the engine holds no state, so concurrent calls are safe.
class IoEngine {
 public:
  // Performs every descriptor, blocking until all complete; each
  // descriptor's `result` is filled before returning.
  void RunBatch(std::span<BatchIo> batch);
};

// Registers "threadpool" in IoEngineRegistry.
void RegisterBuiltinIoEngines();

}  // namespace pfs

#endif  // PFS_DRIVER_IO_ENGINE_H_
