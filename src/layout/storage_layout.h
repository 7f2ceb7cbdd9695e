// The abstract storage-layout component (paper §2, "Storage-layout"): it
// "knows the actual location(s) of file-system meta-data and is able to
// store and retrieve information from one or more disks. It is consulted
// whenever something needs to be done with a raw disk. The base class is
// only an interface ... for all layout and policy decisions there exists a
// virtual method."
//
// Implementations: LfsLayout (segmented log-structured, the paper's
// production layout) and FfsLayout (cylinder-group update-in-place
// baseline) derive from MappedLayout, which holds the inode and block-map
// machinery they share; GuessingLayout (the simulator's educated-guess mode)
// keeps no block map and derives from this class directly.
#ifndef PFS_LAYOUT_STORAGE_LAYOUT_H_
#define PFS_LAYOUT_STORAGE_LAYOUT_H_

#include <span>

#include "cache/block.h"
#include "core/result.h"
#include "layout/inode.h"
#include "layout/types.h"
#include "sched/affinity.h"
#include "sched/task.h"

namespace pfs {

// Shard-affine (ShardAffine): a layout's allocation maps, inode tables, and
// log state belong to its filesystem's shard. MakeLayout binds the home
// scheduler; the concrete layouts assert on every virtual entry point.
class StorageLayout : public ShardAffine {
 public:
  virtual ~StorageLayout() = default;

  virtual const char* layout_name() const = 0;
  virtual uint32_t fs_id() const = 0;
  virtual uint32_t block_size() const = 0;

  // -- lifecycle --
  // Spawns the layout's daemon threads (log cleaner, ...), once the layout
  // is formatted or mounted. Default: the layout has none.
  virtual void Start() {}
  virtual Task<Status> Format() = 0;
  virtual Task<Status> Mount() = 0;
  virtual Task<Status> Unmount() = 0;  // Sync + checkpoint metadata
  virtual Task<Status> Sync() = 0;     // persist all layout metadata

  // The root directory's inode number (valid after Format/Mount).
  virtual uint64_t root_ino() const = 0;

  // -- inodes --
  virtual Task<Result<uint64_t>> AllocInode(FileType type) = 0;
  virtual Task<Result<Inode>> ReadInode(uint64_t ino) = 0;
  virtual Task<Status> WriteInode(const Inode& inode) = 0;
  // Frees the inode and every block the file owns.
  virtual Task<Status> FreeInode(uint64_t ino) = 0;

  // -- data path (driven by the buffer cache's BlockIoHandler) --
  virtual Task<Status> ReadFileBlock(uint64_t ino, uint64_t file_block,
                                     std::span<std::byte> out) = 0;
  // Writes the blocks (pre-sorted by file block number) and updates the
  // file's block map and inode. Log layouts assign fresh addresses;
  // update-in-place layouts allocate on first write.
  virtual Task<Status> WriteFileBlocks(uint64_t ino, std::span<CacheBlock* const> blocks) = 0;
  // Releases the blocks at and above `from_block` (delete = 0).
  virtual Task<Status> TruncateBlocks(uint64_t ino, uint64_t from_block) = 0;

  // -- space accounting --
  virtual uint64_t TotalBlocks() const = 0;
  virtual uint64_t FreeBlocksEstimate() const = 0;
};

}  // namespace pfs

#endif  // PFS_LAYOUT_STORAGE_LAYOUT_H_
