// MappedLayout: the machinery every block-mapped storage layout shares, between
// the StorageLayout interface and the concrete layouts. It owns the inode and
// block-map caches, loads block-map chunks on a miss, brackets in-flight
// writes so an unlink during a flush is deferred, truncates, and persists
// every cached inode on Sync.
//
// Paper §2 puts a virtual method at every layout and policy decision. Here
// those decisions are the hooks below: where an inode lives on disk, how a
// block address or inode slot is released, where a file's blocks are
// placed, and how one file's metadata is persisted. LfsLayout appends to a
// log; FfsLayout allocates in cylinder groups and writes in place.
// GuessingLayout keeps no block map and derives from StorageLayout directly.
#ifndef PFS_LAYOUT_MAPPED_LAYOUT_H_
#define PFS_LAYOUT_MAPPED_LAYOUT_H_

#include <unordered_map>
#include <unordered_set>

#include "layout/block_map.h"
#include "layout/storage_layout.h"
#include "sched/scheduler.h"
#include "stats/histogram.h"

namespace pfs {

class MappedLayout : public StorageLayout {
 public:
  Task<Status> Unmount() final;  // Sync, then unmounted
  Task<Result<Inode>> ReadInode(uint64_t ino) final;
  Task<Status> WriteInode(const Inode& inode) final;
  // Frees immediately, or defers until in-flight writes for `ino` complete
  // (an unlinked file may still be mid-flush; see busy_inos_).
  Task<Status> FreeInode(uint64_t ino) final;
  Task<Status> ReadFileBlock(uint64_t ino, uint64_t file_block,
                             std::span<std::byte> out) final;
  // Places the blocks (PlaceFileBlocks), then persists the file's metadata
  // (PersistFile), with `ino` marked busy throughout.
  Task<Status> WriteFileBlocks(uint64_t ino, std::span<CacheBlock* const> blocks) final;
  Task<Status> TruncateBlocks(uint64_t ino, uint64_t from_block) final;

 protected:
  // Real instantiation (`materialize_metadata`): metadata is read back from
  // the device on a cache miss. Simulator: the caches are complete, so a miss
  // on an allocated inode or chunk is a bug.
  MappedLayout(Scheduler* sched, BlockDev dev, bool materialize_metadata);

  // Where an inode's encoding lives on disk.
  struct InodeSlot {
    uint64_t block;
    size_t offset;  // bytes into the block
  };

  // -- per-layout decisions --
  // The on-disk slot of an allocated inode, consulted on a cache miss:
  // kInvalidArgument for a number out of range, kNotFound when unallocated.
  virtual Result<InodeSlot> LocateInode(uint64_t ino) const = 0;
  // Gives back a block the file no longer maps (data or block-map chunk).
  virtual void ReleaseBlock(uint64_t addr) = 0;
  // Gives back the inode's slot once its blocks are released.
  virtual void ReleaseInodeSlot(uint64_t ino) = 0;
  // Writes the blocks (sorted by file block) and maps them in the file's
  // block map.
  virtual Task<Status> PlaceFileBlocks(uint64_t ino, std::span<CacheBlock* const> blocks) = 0;
  // Writes the file's dirty block-map chunks and then its inode.
  virtual Task<Status> PersistFile(uint64_t ino) = 0;

  // -- shared machinery --
  Task<Result<Inode*>> GetInode(uint64_t ino);
  // The file's block map, created empty (no chunk loaded) on first use.
  BlockMap* GetBmap(uint64_t ino);
  // Makes `chunk` of the file's block map resident; kOutOfRange past the
  // largest mappable file.
  Task<Status> LoadChunk(uint64_t ino, BlockMap* bmap, size_t chunk);
  // Caches a freshly allocated inode and its empty block map.
  void CacheNewInode(uint64_t ino, FileType type);
  bool InodeCached(uint64_t ino) const { return inode_cache_.contains(ino); }
  void DropCaches();
  // PersistFile for every cached inode, each under the busy bracket. Walks a
  // copy of the inode numbers: a persist suspends on I/O, and an unlink in
  // that window erases cache entries.
  Task<Status> PersistCachedInodes();
  // In-flight write tracking: raw Inode*/BlockMap* pointers live across
  // suspension points inside the write paths, so the maps they point into
  // must not lose those entries until the writes retire.
  void BeginInoWrite(uint64_t ino) { ++busy_inos_[ino]; }
  Task<Status> EndInoWrite(uint64_t ino);
  bool InoBusy(uint64_t ino) const {
    auto it = busy_inos_.find(ino);
    return it != busy_inos_.end() && it->second > 0;
  }
  // File blocks ReadFileBlock fetched from the device (holes excluded).
  uint64_t file_blocks_read() const { return file_blocks_read_.value(); }

  Scheduler* sched_;
  BlockDev dev_;
  bool mounted_ = false;

 private:
  Task<Status> FreeInodeNow(uint64_t ino);

  bool materialize_metadata_;
  // Complete in simulator mode; write-through in real mode.
  std::unordered_map<uint64_t, Inode> inode_cache_;
  std::unordered_map<uint64_t, BlockMap> bmap_cache_;
  // In-flight write counts. An entry stays, at zero, until its inode is
  // freed, so a steady stream of writes to a file inserts nothing.
  std::unordered_map<uint64_t, int> busy_inos_;
  std::unordered_set<uint64_t> free_pending_;    // unlinked while busy
  Counter file_blocks_read_;
};

}  // namespace pfs

#endif  // PFS_LAYOUT_MAPPED_LAYOUT_H_
