#include "layout/ffs_layout.h"

#include <cstring>

#include "core/log.h"
#include "system/component_registry.h"

namespace pfs {
namespace {
constexpr uint64_t kFfsMagic = 0x5046534646533131ULL;  // "PFSFFS11"
}

FfsLayout::FfsLayout(Scheduler* sched, BlockDev dev, FfsConfig config)
    : MappedLayout(sched, std::move(dev), config.materialize_metadata), config_(config) {
  PFS_CHECK(config_.block_size == dev_.block_size());
  inodes_per_block_ = config_.block_size / static_cast<uint32_t>(Inode::kDiskSize);
  itable_blocks_ = CeilDiv(config_.inodes_per_group, inodes_per_block_);
  PFS_CHECK(config_.blocks_per_group > 2 + itable_blocks_ + 8);
  ngroups_ = static_cast<uint32_t>((dev_.nblocks() - 1) / config_.blocks_per_group);
  PFS_CHECK_MSG(ngroups_ >= 1, "partition too small for FFS");
}

MappedLayout::InodeSlot FfsLayout::SlotOf(uint64_t ino) const {
  const uint32_t index = IndexInGroup(ino);
  return InodeSlot{GroupBase(GroupOfIno(ino)) + 2 + index / inodes_per_block_,
                   (index % inodes_per_block_) * Inode::kDiskSize};
}

Task<Status> FfsLayout::Format() {
  PFS_ASSERT_SHARD();
  groups_.assign(ngroups_, Group{});
  for (Group& g : groups_) {
    g.inode_used.assign(config_.inodes_per_group, false);
    g.block_used.assign(DataBlocksPerGroup(), false);
  }
  free_blocks_ = static_cast<uint64_t>(ngroups_) * DataBlocksPerGroup();
  DropCaches();
  next_group_hint_ = 0;
  mounted_ = true;

  std::vector<std::byte> buf;
  std::span<const std::byte> payload;
  if (config_.materialize_metadata) {
    Serializer s(&buf);
    s.PutU64(kFfsMagic);
    s.PutU32(config_.block_size);
    s.PutU32(config_.blocks_per_group);
    s.PutU32(config_.inodes_per_group);
    s.PutU32(ngroups_);
    buf.resize(config_.block_size);
    payload = buf;
  }
  PFS_CO_RETURN_IF_ERROR(co_await dev_.Write(0, payload));

  PFS_CO_ASSIGN_OR_RETURN(root_ino_, co_await AllocInode(FileType::kDirectory));
  PFS_CO_RETURN_IF_ERROR(co_await PersistInode(root_ino_));
  co_return co_await Sync();
}

Task<Status> FfsLayout::Mount() {
  PFS_ASSERT_SHARD();
  if (mounted_) {
    co_return OkStatus();
  }
  if (!config_.materialize_metadata) {
    co_return Status(ErrorCode::kCorrupt, "simulator mount requires Format first");
  }
  std::vector<std::byte> super(config_.block_size);
  PFS_CO_RETURN_IF_ERROR(co_await dev_.Read(0, super));
  Deserializer d(super);
  PFS_CO_ASSIGN_OR_RETURN(const uint64_t magic, d.TakeU64());
  if (magic != kFfsMagic) {
    co_return Status(ErrorCode::kCorrupt, "bad FFS superblock");
  }
  PFS_CO_ASSIGN_OR_RETURN(const uint32_t block_size, d.TakeU32());
  PFS_CO_ASSIGN_OR_RETURN(const uint32_t bpg, d.TakeU32());
  PFS_CO_ASSIGN_OR_RETURN(const uint32_t ipg, d.TakeU32());
  PFS_CO_ASSIGN_OR_RETURN(const uint32_t ngroups, d.TakeU32());
  if (block_size != config_.block_size || bpg != config_.blocks_per_group ||
      ipg != config_.inodes_per_group || ngroups != ngroups_) {
    co_return Status(ErrorCode::kCorrupt, "FFS superblock/config mismatch");
  }

  groups_.assign(ngroups_, Group{});
  free_blocks_ = 0;
  std::vector<std::byte> bitmap_buf(config_.block_size);
  for (uint32_t g = 0; g < ngroups_; ++g) {
    Group& group = groups_[g];
    group.inode_used.assign(config_.inodes_per_group, false);
    group.block_used.assign(DataBlocksPerGroup(), false);
    // Inode bitmap.
    PFS_CO_RETURN_IF_ERROR(co_await dev_.Read(GroupBase(g), bitmap_buf));
    for (uint32_t i = 0; i < config_.inodes_per_group; ++i) {
      group.inode_used[i] =
          (static_cast<uint8_t>(bitmap_buf[i / 8]) >> (i % 8)) & 1;
    }
    // Block bitmap.
    PFS_CO_RETURN_IF_ERROR(co_await dev_.Read(GroupBase(g) + 1, bitmap_buf));
    for (uint32_t i = 0; i < DataBlocksPerGroup(); ++i) {
      group.block_used[i] = (static_cast<uint8_t>(bitmap_buf[i / 8]) >> (i % 8)) & 1;
      if (!group.block_used[i]) {
        ++free_blocks_;
      }
    }
  }
  // Root is by convention the first inode of group 0.
  root_ino_ = 1;
  mounted_ = true;
  co_return OkStatus();
}

Task<Status> FfsLayout::Sync() {
  PFS_ASSERT_SHARD();
  PFS_CHECK(mounted_);
  // Inode attribute write-back.
  PFS_CO_RETURN_IF_ERROR(co_await PersistCachedInodes());
  // Bitmap write-back.
  for (uint32_t g = 0; g < ngroups_; ++g) {
    if (!groups_[g].dirty) {
      continue;
    }
    std::vector<std::byte> buf;
    std::span<const std::byte> payload;
    if (config_.materialize_metadata) {
      buf.assign(config_.block_size, std::byte{0});
      for (uint32_t i = 0; i < config_.inodes_per_group; ++i) {
        if (groups_[g].inode_used[i]) {
          buf[i / 8] |= static_cast<std::byte>(1u << (i % 8));
        }
      }
      payload = buf;
    }
    PFS_CO_RETURN_IF_ERROR(co_await dev_.Write(GroupBase(g), payload));
    if (config_.materialize_metadata) {
      buf.assign(config_.block_size, std::byte{0});
      for (uint32_t i = 0; i < DataBlocksPerGroup(); ++i) {
        if (groups_[g].block_used[i]) {
          buf[i / 8] |= static_cast<std::byte>(1u << (i % 8));
        }
      }
      payload = buf;
    }
    PFS_CO_RETURN_IF_ERROR(co_await dev_.Write(GroupBase(g) + 1, payload));
    groups_[g].dirty = false;
  }
  co_return OkStatus();
}

Task<Result<uint64_t>> FfsLayout::AllocInode(FileType type) {
  PFS_ASSERT_SHARD();
  PFS_CHECK(mounted_);
  for (uint32_t attempt = 0; attempt < ngroups_; ++attempt) {
    const uint32_t g = (next_group_hint_ + attempt) % ngroups_;
    Group& group = groups_[g];
    for (uint32_t i = 0; i < config_.inodes_per_group; ++i) {
      if (group.inode_used[i]) {
        continue;
      }
      group.inode_used[i] = true;
      group.dirty = true;
      next_group_hint_ = (g + 1) % ngroups_;  // spread directories/files
      const uint64_t ino = 1 + static_cast<uint64_t>(g) * config_.inodes_per_group + i;
      CacheNewInode(ino, type);
      co_return ino;
    }
  }
  co_return Status(ErrorCode::kNoSpace, "no free inodes");
}

Result<MappedLayout::InodeSlot> FfsLayout::LocateInode(uint64_t ino) const {
  if (ino == 0 || GroupOfIno(ino) >= ngroups_) {
    return Status(ErrorCode::kInvalidArgument, "bad inode number");
  }
  if (!groups_[GroupOfIno(ino)].inode_used[IndexInGroup(ino)]) {
    return Status(ErrorCode::kNotFound, "inode not allocated");
  }
  return SlotOf(ino);
}

Task<Status> FfsLayout::PersistInode(uint64_t ino) {
  PFS_CO_ASSIGN_OR_RETURN(Inode * inode, co_await GetInode(ino));
  inode_writes_.Inc();
  const InodeSlot slot = SlotOf(ino);
  if (!config_.materialize_metadata) {
    // Charge the read-modify-write of the table block.
    PFS_CO_RETURN_IF_ERROR(co_await dev_.Read(slot.block, {}));
    co_return co_await dev_.Write(slot.block, {});
  }
  std::vector<std::byte> buf(config_.block_size);
  PFS_CO_RETURN_IF_ERROR(co_await dev_.Read(slot.block, buf));
  std::vector<std::byte> encoded;
  Serializer s(&encoded);
  inode->Serialize(&s);
  std::memcpy(buf.data() + slot.offset, encoded.data(), Inode::kDiskSize);
  co_return co_await dev_.Write(slot.block, buf);
}

Result<uint64_t> FfsLayout::AllocDataBlock(uint32_t preferred_group) {
  for (uint32_t attempt = 0; attempt < ngroups_; ++attempt) {
    const uint32_t g = (preferred_group + attempt) % ngroups_;
    Group& group = groups_[g];
    for (uint32_t i = 0; i < DataBlocksPerGroup(); ++i) {
      if (!group.block_used[i]) {
        group.block_used[i] = true;
        group.dirty = true;
        PFS_CHECK(free_blocks_ > 0);
        --free_blocks_;
        return DataBase(g) + i;
      }
    }
  }
  return Status(ErrorCode::kNoSpace, "no free data blocks");
}

void FfsLayout::ReleaseBlock(uint64_t addr) {
  const uint32_t g = static_cast<uint32_t>((addr - 1) / config_.blocks_per_group);
  const uint64_t index = addr - DataBase(g);
  PFS_CHECK(index < DataBlocksPerGroup());
  Group& group = groups_[g];
  PFS_CHECK(group.block_used[index]);
  group.block_used[index] = false;
  group.dirty = true;
  ++free_blocks_;
}

void FfsLayout::ReleaseInodeSlot(uint64_t ino) {
  Group& group = groups_[GroupOfIno(ino)];
  const uint32_t index = IndexInGroup(ino);
  PFS_CHECK(group.inode_used[index]);
  group.inode_used[index] = false;
  group.dirty = true;
}

Task<Status> FfsLayout::PersistDirtyChunks(uint64_t ino) {
  PFS_CO_ASSIGN_OR_RETURN(Inode * inode, co_await GetInode(ino));
  BlockMap* bmap = GetBmap(ino);
  for (size_t chunk = 0; chunk < bmap->chunk_count(); ++chunk) {
    if (!bmap->ChunkDirty(chunk)) {
      continue;
    }
    if (inode->bmap[chunk] == kNullAddr) {
      PFS_CO_ASSIGN_OR_RETURN(inode->bmap[chunk], AllocDataBlock(GroupOfIno(ino)));
    }
    std::vector<std::byte> buf;
    std::span<const std::byte> payload;
    if (config_.materialize_metadata) {
      Serializer s(&buf);
      bmap->SerializeChunk(chunk, &s);
      buf.resize(config_.block_size);
      payload = buf;
    }
    PFS_CO_RETURN_IF_ERROR(co_await dev_.Write(inode->bmap[chunk], payload));
    blocks_written_.Inc();
    bmap->MarkChunkClean(chunk);
  }
  co_return OkStatus();
}

Task<Status> FfsLayout::PlaceFileBlocks(uint64_t ino, std::span<CacheBlock* const> blocks) {
  BlockMap* bmap = GetBmap(ino);
  const uint32_t group = GroupOfIno(ino);
  for (const CacheBlock* b : blocks) {
    PFS_CHECK(b->id.ino == ino);
    PFS_CO_RETURN_IF_ERROR(
        co_await LoadChunk(ino, bmap, b->id.block_no / bmap->entries_per_chunk()));
    uint64_t addr = bmap->Get(b->id.block_no);
    if (addr == kNullAddr) {
      PFS_CO_ASSIGN_OR_RETURN(addr, AllocDataBlock(group));
      bmap->Set(b->id.block_no, addr);
    }
    PFS_CO_RETURN_IF_ERROR(
        co_await dev_.Write(addr, std::span<const std::byte>(b->data.data(), b->data.size())));
    blocks_written_.Inc();
  }
  co_return OkStatus();
}

Task<Status> FfsLayout::PersistFile(uint64_t ino) {
  PFS_CO_RETURN_IF_ERROR(co_await PersistDirtyChunks(ino));
  co_return co_await PersistInode(ino);
}

std::string FfsLayout::StatReport(bool with_histograms) const {
  (void)with_histograms;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "groups=%u free-blocks=%llu blocks-written=%llu blocks-read=%llu "
                "inode-writes=%llu\n",
                ngroups_, static_cast<unsigned long long>(free_blocks_),
                static_cast<unsigned long long>(blocks_written_.value()),
                static_cast<unsigned long long>(file_blocks_read()),
                static_cast<unsigned long long>(inode_writes_.value()));
  return buf;
}

void RegisterFfsLayout() {
  LayoutRegistry::Register(
      "ffs", {[](LayoutContext ctx) -> std::unique_ptr<StorageLayout> {
                FfsConfig ffs;
                ffs.fs_id = static_cast<uint32_t>(ctx.fs_index);
                ffs.materialize_metadata = !ctx.config->simulated();
                return std::make_unique<FfsLayout>(ctx.sched, std::move(ctx.dev), ffs);
              },
              [](const SystemConfig& config) {
                FfsConfig ffs;
                ffs.materialize_metadata = !config.simulated();
                return FfsLayout::MinPartitionBlocks(ffs);
              },
              nullptr});
}

}  // namespace pfs
