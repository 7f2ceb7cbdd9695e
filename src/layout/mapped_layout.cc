#include "layout/mapped_layout.h"

#include <cstring>
#include <vector>

namespace pfs {

MappedLayout::MappedLayout(Scheduler* sched, BlockDev dev, bool materialize_metadata)
    : sched_(sched), dev_(std::move(dev)), materialize_metadata_(materialize_metadata) {}

// -- cache helpers ---------------------------------------------------------------

Task<Result<Inode*>> MappedLayout::GetInode(uint64_t ino) {
  auto it = inode_cache_.find(ino);
  if (it != inode_cache_.end()) {
    co_return &it->second;
  }
  PFS_CO_ASSIGN_OR_RETURN(const InodeSlot slot, LocateInode(ino));
  PFS_CHECK_MSG(materialize_metadata_, "simulator inode cache lost an allocated inode");
  std::vector<std::byte> buf(dev_.block_size());
  PFS_CO_RETURN_IF_ERROR(co_await dev_.Read(slot.block, buf));
  Deserializer d(std::span<const std::byte>(buf).subspan(slot.offset, Inode::kDiskSize));
  PFS_CO_ASSIGN_OR_RETURN(Inode inode, Inode::Deserialize(&d));
  if (inode.ino != ino) {
    co_return Status(ErrorCode::kCorrupt, "inode slot mismatch");
  }
  auto [pos, inserted] = inode_cache_.emplace(ino, inode);
  PFS_CHECK(inserted);
  co_return &pos->second;
}

BlockMap* MappedLayout::GetBmap(uint64_t ino) {
  auto it = bmap_cache_.find(ino);
  if (it == bmap_cache_.end()) {
    it = bmap_cache_.emplace(ino, BlockMap(dev_.block_size())).first;
  }
  return &it->second;
}

Task<Status> MappedLayout::LoadChunk(uint64_t ino, BlockMap* bmap, size_t chunk) {
  if (chunk >= Inode::kBmapChunks) {
    co_return Status(ErrorCode::kOutOfRange, "file block beyond maximum size");
  }
  if (bmap->ChunkLoaded(chunk)) {
    co_return OkStatus();
  }
  PFS_CO_ASSIGN_OR_RETURN(Inode * inode, co_await GetInode(ino));
  const uint64_t addr = inode->bmap[chunk];
  if (addr == kNullAddr) {
    co_return OkStatus();  // all holes
  }
  PFS_CHECK_MSG(materialize_metadata_, "simulator bmap cache lost a chunk");
  std::vector<std::byte> buf(dev_.block_size());
  PFS_CO_RETURN_IF_ERROR(co_await dev_.Read(addr, buf));
  Deserializer d(buf);
  co_return bmap->DeserializeChunk(chunk, &d);
}

void MappedLayout::CacheNewInode(uint64_t ino, FileType type) {
  Inode inode;
  inode.ino = ino;
  inode.type = type;
  inode.nlink = 1;
  inode.mtime_ns = sched_->Now().nanos();
  inode_cache_.insert_or_assign(ino, inode);
  bmap_cache_.emplace(ino, BlockMap(dev_.block_size()));
}

void MappedLayout::DropCaches() {
  inode_cache_.clear();
  bmap_cache_.clear();
}

Task<Status> MappedLayout::PersistCachedInodes() {
  std::vector<uint64_t> inos;
  inos.reserve(inode_cache_.size());
  for (const auto& [ino, inode] : inode_cache_) {
    inos.push_back(ino);
  }
  for (uint64_t ino : inos) {
    if (!inode_cache_.contains(ino)) {
      continue;  // freed while an earlier persist was in flight
    }
    BeginInoWrite(ino);
    const Status status = co_await PersistFile(ino);
    PFS_CO_RETURN_IF_ERROR(co_await EndInoWrite(ino));
    PFS_CO_RETURN_IF_ERROR(status);
  }
  co_return OkStatus();
}

Task<Status> MappedLayout::EndInoWrite(uint64_t ino) {
  auto it = busy_inos_.find(ino);
  PFS_CHECK(it != busy_inos_.end() && it->second > 0);
  if (--it->second == 0) {
    busy_inos_.erase(it);
    if (free_pending_.erase(ino) > 0) {
      co_return co_await FreeInodeNow(ino);
    }
  }
  co_return OkStatus();
}

Task<Status> MappedLayout::FreeInodeNow(uint64_t ino) {
  PFS_CO_RETURN_IF_ERROR(co_await TruncateBlocks(ino, 0));
  ReleaseInodeSlot(ino);
  inode_cache_.erase(ino);
  bmap_cache_.erase(ino);
  co_return OkStatus();
}

// -- StorageLayout interface ------------------------------------------------------

Task<Status> MappedLayout::Unmount() {
  PFS_ASSERT_SHARD();
  PFS_CO_RETURN_IF_ERROR(co_await Sync());
  mounted_ = false;
  co_return OkStatus();
}

Task<Result<Inode>> MappedLayout::ReadInode(uint64_t ino) {
  PFS_ASSERT_SHARD();
  PFS_CO_ASSIGN_OR_RETURN(Inode * inode, co_await GetInode(ino));
  co_return *inode;
}

Task<Status> MappedLayout::WriteInode(const Inode& inode) {
  PFS_ASSERT_SHARD();
  PFS_CHECK(mounted_);
  auto it = inode_cache_.find(inode.ino);
  if (it == inode_cache_.end()) {
    co_return Status(ErrorCode::kNotFound, "WriteInode of unknown inode");
  }
  // Preserve the layout-owned block-map pointers; callers update attributes.
  const auto bmap_ptrs = it->second.bmap;
  it->second = inode;
  it->second.bmap = bmap_ptrs;
  co_return OkStatus();
}

Task<Status> MappedLayout::FreeInode(uint64_t ino) {
  PFS_ASSERT_SHARD();
  if (busy_inos_.contains(ino)) {
    // A write or persist for this file is suspended on I/O and holds
    // pointers into the caches. Defer the free until it retires (Unix
    // unlink semantics at the layout level).
    free_pending_.insert(ino);
    co_return OkStatus();
  }
  co_return co_await FreeInodeNow(ino);
}

Task<Status> MappedLayout::ReadFileBlock(uint64_t ino, uint64_t file_block,
                                         std::span<std::byte> out) {
  PFS_ASSERT_SHARD();
  BlockMap* bmap = GetBmap(ino);
  PFS_CO_RETURN_IF_ERROR(co_await LoadChunk(ino, bmap, file_block / bmap->entries_per_chunk()));
  const uint64_t addr = bmap->Get(file_block);
  if (addr == kNullAddr) {
    // Hole: reads as zeroes, no I/O.
    if (!out.empty()) {
      std::memset(out.data(), 0, out.size());
    }
    co_return OkStatus();
  }
  file_blocks_read_.Inc();
  co_return co_await dev_.Read(addr, out);
}

Task<Status> MappedLayout::WriteFileBlocks(uint64_t ino, std::span<CacheBlock* const> blocks) {
  PFS_ASSERT_SHARD();
  if (blocks.empty()) {
    co_return OkStatus();
  }
  BeginInoWrite(ino);
  Status status = co_await PlaceFileBlocks(ino, blocks);
  if (status.ok()) {
    status = co_await PersistFile(ino);
  }
  PFS_CO_RETURN_IF_ERROR(co_await EndInoWrite(ino));
  co_return status;
}

Task<Status> MappedLayout::TruncateBlocks(uint64_t ino, uint64_t from_block) {
  PFS_ASSERT_SHARD();
  PFS_CO_ASSIGN_OR_RETURN(Inode * inode, co_await GetInode(ino));
  BlockMap* bmap = GetBmap(ino);
  // Load every chunk that may contain mappings to free.
  for (size_t chunk = from_block / bmap->entries_per_chunk(); chunk < Inode::kBmapChunks;
       ++chunk) {
    if (inode->bmap[chunk] != kNullAddr) {
      PFS_CO_RETURN_IF_ERROR(co_await LoadChunk(ino, bmap, chunk));
    }
  }
  for (uint64_t addr : bmap->TruncateFrom(from_block)) {
    ReleaseBlock(addr);
  }
  // Chunks entirely above the new end lose their on-disk block too.
  const size_t first_dead_chunk = CeilDiv(from_block, bmap->entries_per_chunk());
  for (size_t chunk = first_dead_chunk; chunk < Inode::kBmapChunks; ++chunk) {
    if (inode->bmap[chunk] != kNullAddr) {
      ReleaseBlock(inode->bmap[chunk]);
      inode->bmap[chunk] = kNullAddr;
      bmap->MarkChunkClean(chunk);
    }
  }
  co_return OkStatus();
}

}  // namespace pfs
