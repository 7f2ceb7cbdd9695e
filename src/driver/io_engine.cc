#include "driver/io_engine.h"

#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <memory>

#include "system/component_registry.h"

namespace pfs {
namespace {

// Runs of more iovecs than this are split (IOV_MAX is 1024 on Linux; stay
// comfortably below it).
constexpr size_t kMaxIov = 256;

uint64_t ByteLen(const BatchIo& desc) {
  return desc.op == IoOp::kRead ? desc.read_buf.size() : desc.write_buf.size();
}

Status ErrnoStatus(const char* what) {
  return Status(ErrorCode::kIoError, std::string(what) + ": " + std::strerror(errno));
}

// One descriptor through pread/pwrite: continues a short transfer from
// where it stopped, retries EINTR, and turns a zero-byte read (EOF inside
// the image) into an error instead of partial data.
Status FullTransfer(const BatchIo& desc) {
  const uint64_t total = ByteLen(desc);
  uint64_t done = 0;
  while (done < total) {
    ssize_t n;
    if (desc.op == IoOp::kRead) {
      n = ::pread(desc.fd, desc.read_buf.data() + done, total - done,
                  static_cast<off_t>(desc.offset + done));
    } else {
      n = ::pwrite(desc.fd, desc.write_buf.data() + done, total - done,
                   static_cast<off_t>(desc.offset + done));
    }
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return ErrnoStatus(desc.op == IoOp::kRead ? "pread" : "pwrite");
    }
    if (n == 0) {
      return Status(ErrorCode::kIoError, "pread: unexpected EOF mid-transfer");
    }
    done += static_cast<uint64_t>(n);
  }
  return OkStatus();
}

// One contiguous same-op run of a batch through preadv/pwritev, looping to
// full transfer across the whole run. Descriptors fully covered when an
// error stops the loop keep their OkStatus; the rest share the error.
void RunVectored(std::span<BatchIo> run) {
  const bool is_read = run[0].op == IoOp::kRead;
  uint64_t total = 0;
  for (const BatchIo& desc : run) {
    total += ByteLen(desc);
  }
  uint64_t done = 0;
  Status error = OkStatus();
  while (done < total) {
    // Rebuild the iovec window past the bytes already moved.
    struct iovec iov[kMaxIov];
    int iov_count = 0;
    uint64_t prefix = 0;
    for (const BatchIo& desc : run) {
      const uint64_t len = ByteLen(desc);
      if (prefix + len > done) {
        const uint64_t skip = done > prefix ? done - prefix : 0;
        // pwritev does not write through its iovecs; the const_cast is safe.
        std::byte* base = is_read ? desc.read_buf.data()
                                  : const_cast<std::byte*>(desc.write_buf.data());
        iov[iov_count].iov_base = base + skip;
        iov[iov_count].iov_len = static_cast<size_t>(len - skip);
        ++iov_count;
      }
      prefix += len;
    }
    const off_t offset = static_cast<off_t>(run[0].offset + done);
    const ssize_t n = is_read ? ::preadv(run[0].fd, iov, iov_count, offset)
                              : ::pwritev(run[0].fd, iov, iov_count, offset);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      error = ErrnoStatus(is_read ? "preadv" : "pwritev");
      break;
    }
    if (n == 0) {
      error = Status(ErrorCode::kIoError, "preadv: unexpected EOF mid-transfer");
      break;
    }
    done += static_cast<uint64_t>(n);
  }
  uint64_t prefix = 0;
  for (BatchIo& desc : run) {
    prefix += ByteLen(desc);
    desc.result = prefix <= done ? OkStatus() : error;
  }
}

}  // namespace

void IoEngine::RunBatch(std::span<BatchIo> batch) {
  size_t i = 0;
  while (i < batch.size()) {
    size_t j = i + 1;
    uint64_t end = batch[i].offset + ByteLen(batch[i]);
    while (j < batch.size() && batch[j].op == batch[i].op && batch[j].fd == batch[i].fd &&
           batch[j].offset == end && j - i < kMaxIov && ByteLen(batch[j]) > 0) {
      end += ByteLen(batch[j]);
      ++j;
    }
    if (j - i == 1) {
      batch[i].result = FullTransfer(batch[i]);
    } else {
      RunVectored(batch.subspan(i, j - i));
    }
    i = j;
  }
}

void RegisterBuiltinIoEngines() {
  IoEngineRegistry::Register("threadpool", [] { return std::make_unique<IoEngine>(); });
}

}  // namespace pfs
