// FFS-lite: an update-in-place cylinder-group layout, the second concrete
// storage layout (paper §2: "To implement other storage-layouts (such as a
// Unix FFS ...) a new derived storage-layout class needs to be written").
// It shares the inode/block-map machinery with the LFS (MappedLayout),
// differing in allocation: bitmapped blocks and a fixed inode table per
// group, data written back in place.
//
// On-disk format (blocks within the partition):
//   0                         superblock
//   per group g at G(g):      inode bitmap | block bitmap | inode table | data
//
// Bitmaps and inode tables are held in memory and written back on Sync or
// Unmount (crash consistency is out of scope, as in the paper's PFS).
#ifndef PFS_LAYOUT_FFS_LAYOUT_H_
#define PFS_LAYOUT_FFS_LAYOUT_H_

#include <string>
#include <vector>

#include "layout/mapped_layout.h"
#include "stats/histogram.h"
#include "stats/registry.h"

namespace pfs {

struct FfsConfig {
  uint32_t fs_id = 0;
  uint32_t block_size = kDefaultBlockSize;
  uint32_t blocks_per_group = 2048;  // 8 MiB groups with 4 KB blocks
  uint32_t inodes_per_group = 256;
  bool materialize_metadata = false;
};

class FfsLayout final : public MappedLayout, public StatSource {
 public:
  FfsLayout(Scheduler* sched, BlockDev dev, FfsConfig config);

  // The smallest partition (in blocks) that yields at least one cylinder
  // group: the superblock plus one full group.
  static uint64_t MinPartitionBlocks(const FfsConfig& config) {
    return 1 + config.blocks_per_group;
  }

  const char* layout_name() const override { return "ffs"; }
  uint32_t fs_id() const override { return config_.fs_id; }
  uint32_t block_size() const override { return config_.block_size; }
  Task<Status> Format() override;
  Task<Status> Mount() override;
  Task<Status> Sync() override;
  uint64_t root_ino() const override { return root_ino_; }
  Task<Result<uint64_t>> AllocInode(FileType type) override;
  uint64_t TotalBlocks() const override { return dev_.nblocks(); }
  uint64_t FreeBlocksEstimate() const override { return free_blocks_; }

  // StatSource
  std::string stat_name() const override { return "ffs.fs" + std::to_string(config_.fs_id); }
  std::string StatJson() const override;

  uint32_t group_count() const { return ngroups_; }
  uint64_t blocks_written() const { return blocks_written_.value(); }

 private:
  struct Group {
    std::vector<bool> inode_used;
    std::vector<bool> block_used;  // data-area blocks only
    bool dirty = false;            // bitmap needs write-back
  };

  uint32_t GroupOfIno(uint64_t ino) const {
    return static_cast<uint32_t>((ino - 1) / config_.inodes_per_group);
  }
  uint32_t IndexInGroup(uint64_t ino) const {
    return static_cast<uint32_t>((ino - 1) % config_.inodes_per_group);
  }
  uint64_t GroupBase(uint32_t group) const {
    return 1 + static_cast<uint64_t>(group) * config_.blocks_per_group;
  }
  uint64_t DataBase(uint32_t group) const { return GroupBase(group) + 2 + itable_blocks_; }
  uint32_t DataBlocksPerGroup() const { return config_.blocks_per_group - 2 - itable_blocks_; }
  // The inode's slot in its group's inode table (valid ino only).
  InodeSlot SlotOf(uint64_t ino) const;

  // -- MappedLayout hooks --
  Result<InodeSlot> LocateInode(uint64_t ino) const override;
  // Clears the block's bit in its group's bitmap.
  void ReleaseBlock(uint64_t addr) override;
  void ReleaseInodeSlot(uint64_t ino) override;
  // Allocates on first write (in the inode's group), then writes in place.
  Task<Status> PlaceFileBlocks(uint64_t ino, std::span<CacheBlock* const> blocks) override;
  Task<Status> PersistFile(uint64_t ino) override;

  Result<uint64_t> AllocDataBlock(uint32_t preferred_group);
  Task<Status> PersistInode(uint64_t ino);
  Task<Status> PersistDirtyChunks(uint64_t ino);

  FfsConfig config_;
  uint32_t ngroups_ = 0;
  uint32_t itable_blocks_ = 0;
  uint32_t inodes_per_block_ = 0;
  uint64_t free_blocks_ = 0;
  uint64_t root_ino_ = 0;
  uint32_t next_group_hint_ = 0;

  std::vector<Group> groups_;

  Counter blocks_written_;
  Counter inode_writes_;
};

}  // namespace pfs

#endif  // PFS_LAYOUT_FFS_LAYOUT_H_
