#include "fs/file.h"

#include <algorithm>

namespace pfs {

Task<Result<uint64_t>> File::Read(uint64_t offset, uint64_t len, std::span<std::byte> out) {
  if (offset >= inode_.size) {
    co_return 0;
  }
  len = std::min(len, inode_.size - offset);
  const uint32_t bs = fs_->block_size();
  BufferCache* cache = fs_->cache();
  uint64_t done = 0;
  while (done < len) {
    const uint64_t pos = offset + done;
    const uint64_t block_no = pos / bs;
    const uint32_t in_block = static_cast<uint32_t>(pos % bs);
    const uint64_t chunk = std::min<uint64_t>(len - done, bs - in_block);

    PFS_CO_ASSIGN_OR_RETURN(
        CacheBlock * block,
        co_await cache->GetBlock(BlockId{fs_->fs_id(), inode_.ino, block_no}, GetMode::kRead));
    std::span<std::byte> dst =
        out.empty() ? std::span<std::byte>{} : out.subspan(done, chunk);
    std::span<const std::byte> src =
        block->data.empty() ? std::span<const std::byte>{}
                            : std::span<const std::byte>(block->data).subspan(in_block, chunk);
    co_await fs_->mover()->Move(dst, src, chunk);
    cache->Release(block);
    done += chunk;
  }
  co_return done;
}

Task<Result<uint64_t>> File::Write(uint64_t offset, uint64_t len,
                                   std::span<const std::byte> in) {
  if (len == 0) {
    co_return 0;
  }
  if (offset + len > Inode::MaxFileSize(fs_->block_size())) {
    co_return Status(ErrorCode::kOutOfRange, "file too large");
  }
  const uint32_t bs = fs_->block_size();
  BufferCache* cache = fs_->cache();
  uint64_t done = 0;
  while (done < len) {
    const uint64_t pos = offset + done;
    const uint64_t block_no = pos / bs;
    const uint32_t in_block = static_cast<uint32_t>(pos % bs);
    const uint64_t chunk = std::min<uint64_t>(len - done, bs - in_block);

    // Whole-block overwrites need no read-modify-write fill, and neither do
    // writes into a block wholly beyond the current EOF: the cache hands that
    // block back zeroed, so the bytes this write does not cover read as zeroes.
    GetMode mode = GetMode::kRead;
    if (in_block == 0 && chunk == bs) {
      mode = GetMode::kOverwrite;
    } else if (pos >= RoundUp(inode_.size, bs)) {
      mode = GetMode::kPastEof;
    }

    PFS_CO_ASSIGN_OR_RETURN(
        CacheBlock * block,
        co_await cache->GetBlock(BlockId{fs_->fs_id(), inode_.ino, block_no}, mode));
    const Status dirty_status = co_await cache->MarkDirty(block);
    if (!dirty_status.ok()) {
      cache->Release(block);
      co_return dirty_status;
    }
    std::span<std::byte> dst =
        block->data.empty() ? std::span<std::byte>{} : block->data.subspan(in_block, chunk);
    std::span<const std::byte> src =
        in.empty() ? std::span<const std::byte>{} : in.subspan(done, chunk);
    co_await fs_->mover()->Move(dst, src, chunk);
    cache->Release(block);
    done += chunk;
  }
  if (offset + len > inode_.size) {
    inode_.size = offset + len;
  }
  inode_.mtime_ns = fs_->scheduler()->Now().nanos();
  PFS_CO_RETURN_IF_ERROR(co_await PersistInodeAttrs());
  co_return done;
}

Task<Status> File::Truncate(uint64_t new_size) {
  const uint32_t bs = fs_->block_size();
  if (new_size < inode_.size) {
    const uint64_t first_dead_block = CeilDiv(new_size, bs);
    // Dirty data above the cut dies in memory — the overwrite absorption the
    // write-saving policies exploit.
    fs_->cache()->InvalidateFile(fs_->fs_id(), inode_.ino, first_dead_block);
    PFS_CO_RETURN_IF_ERROR(co_await fs_->layout()->TruncateBlocks(inode_.ino, first_dead_block));
  }
  inode_.size = new_size;
  inode_.mtime_ns = fs_->scheduler()->Now().nanos();
  co_return co_await PersistInodeAttrs();
}

Task<Status> File::Flush() {
  PFS_CO_RETURN_IF_ERROR(co_await fs_->cache()->FlushFile(fs_->fs_id(), inode_.ino));
  co_return co_await PersistInodeAttrs();
}

Task<Status> File::PersistInodeAttrs() { co_return co_await fs_->layout()->WriteInode(inode_); }

}  // namespace pfs
