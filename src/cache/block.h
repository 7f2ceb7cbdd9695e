// Cache block descriptor and identity.
#ifndef PFS_CACHE_BLOCK_H_
#define PFS_CACHE_BLOCK_H_

#include <cstdint>
#include <functional>
#include <span>

#include "core/intrusive_list.h"
#include "sched/event.h"
#include "sched/time.h"

namespace pfs {

// A cache block is identified by (file system, inode, file block index); the
// disk address is the storage layout's business, not the cache's.
struct BlockId {
  uint32_t fs_id = 0;
  uint64_t ino = 0;
  uint64_t block_no = 0;

  bool operator==(const BlockId&) const = default;
};

struct BlockIdHash {
  size_t operator()(const BlockId& id) const {
    // splitmix-style mix of the three fields.
    uint64_t h = id.ino * 0x9e3779b97f4a7c15ULL;
    h ^= (id.block_no + 0x7f4a7c15ULL) * 0xbf58476d1ce4e5b9ULL;
    h ^= (static_cast<uint64_t>(id.fs_id) + 1) * 0x94d049bb133111ebULL;
    h ^= h >> 31;
    return static_cast<size_t>(h);
  }
};

enum class BlockState : uint8_t {
  kFree,     // on the free list, no identity
  kFilling,  // inserted, fill I/O in progress
  kClean,    // contents match disk
  kDirty,    // modified since last write-out
};

// Per-open-file cache behaviour hint (paper §2 "Files": a multimedia file
// implements other cache policies to keep from flooding the cache; and the
// Cao-style per-file delegation of replacement decisions).
enum class FileCacheHint : uint8_t {
  kNormal,      // standard LRU aging
  kEvictFirst,  // consumed-once data: released blocks become eviction victims
};

class CacheBlock {
 public:
  explicit CacheBlock(Scheduler* sched) : ready(sched) {}

  CacheBlock(const CacheBlock&) = delete;
  CacheBlock& operator=(const CacheBlock&) = delete;

  BlockId id;
  BlockState state = BlockState::kFree;
  bool io_in_progress = false;  // fill or flush under way
  bool doomed = false;          // invalidated while pinned; freed on last release
  uint32_t pin_count = 0;

  // Incremented on every MarkDirty; a flush only cleans the block if the
  // version did not move while its write was in flight.
  uint64_t dirty_version = 0;

  TimePoint dirtied_at;     // first made dirty (age for the 30-s policy)
  TimePoint last_access;
  TimePoint prev_access;    // second-to-last access (LRU-2)
  uint64_t access_count = 0;  // LFU
  uint8_t slru_protected = 0;  // SLRU segment membership
  FileCacheHint hint = FileCacheHint::kNormal;

  // Real instantiation: a slice of the cache arena. Simulator: empty — the
  // DataMover charges copy time instead of moving bytes.
  std::span<std::byte> data;

  IntrusiveListNode lru_node;   // exactly one of: free / clean / dirty list
  IntrusiveListNode file_node;  // its file's list, while in the block map
  // The next block in its block-map bucket.
  CacheBlock* next_in_bucket = nullptr;

  // Broadcast whenever this block's I/O completes (fill or flush).
  Event ready;
};

}  // namespace pfs

#endif  // PFS_CACHE_BLOCK_H_
