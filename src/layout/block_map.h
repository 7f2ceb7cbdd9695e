// BlockMap: a file's logical-block -> disk-address mapping, chunked into
// block-sized arrays of u64 addresses. Chunks are persisted as ordinary
// layout blocks; the inode records each chunk's disk address. Both the LFS
// and the FFS layouts use this structure, differing only in where chunk
// blocks land on disk.
//
// In memory a chunk holds only the prefix of its array up to its highest
// mapped block, so a small file's map costs a few words, not a block; the
// slots past the prefix are holes, and a serialized chunk is always one
// full block.
#ifndef PFS_LAYOUT_BLOCK_MAP_H_
#define PFS_LAYOUT_BLOCK_MAP_H_

#include <cstdint>
#include <vector>

#include "core/check.h"
#include "core/result.h"
#include "core/serializer.h"
#include "layout/inode.h"

namespace pfs {

class BlockMap {
 public:
  explicit BlockMap(uint32_t block_size)
      : entries_per_chunk_(block_size / 8), block_size_(block_size) {}

  uint64_t entries_per_chunk() const { return entries_per_chunk_; }
  size_t max_chunks() const { return Inode::kBmapChunks; }
  uint64_t max_file_blocks() const { return entries_per_chunk_ * max_chunks(); }

  // Disk address of a file block, or kNullAddr for a hole.
  uint64_t Get(uint64_t file_block) const {
    const size_t chunk = ChunkOf(file_block);
    if (chunk >= chunks_.size()) {
      return kNullAddr;
    }
    const std::vector<uint64_t>& entries = chunks_[chunk].entries;
    const size_t slot = SlotOf(file_block);
    return slot < entries.size() ? entries[slot] : kNullAddr;
  }

  // Sets the mapping; loads the chunk, and marks it dirty when the address
  // changes. Returns the previous address.
  uint64_t Set(uint64_t file_block, uint64_t addr) {
    const size_t chunk = ChunkOf(file_block);
    PFS_CHECK_MSG(chunk < max_chunks(), "file exceeds maximum mappable size");
    if (chunk >= chunks_.size()) {
      chunks_.resize(chunk + 1);
    }
    Chunk& c = chunks_[chunk];
    c.loaded = true;
    const size_t slot = SlotOf(file_block);
    if (slot >= c.entries.size()) {
      if (addr == kNullAddr) {
        return kNullAddr;  // already a hole
      }
      Extend(&c.entries, slot + 1);
    }
    const uint64_t old = c.entries[slot];
    if (old != addr) {
      c.entries[slot] = addr;
      c.dirty = true;
    }
    return old;
  }

  // Drops mappings at and above `from_block`, returning the freed addresses
  // (for segment-usage / bitmap accounting).
  std::vector<uint64_t> TruncateFrom(uint64_t from_block);

  size_t chunk_count() const { return chunks_.size(); }
  bool ChunkLoaded(size_t chunk) const {
    return chunk < chunks_.size() && chunks_[chunk].loaded;
  }
  // Slots the chunk holds in memory: its prefix.
  size_t ChunkPrefix(size_t chunk) const {
    return chunk < chunks_.size() ? chunks_[chunk].entries.size() : 0;
  }
  bool ChunkDirty(size_t chunk) const {
    return chunk < chunks_.size() && chunks_[chunk].dirty;
  }
  void MarkChunkClean(size_t chunk) {
    if (chunk < chunks_.size()) {
      chunks_[chunk].dirty = false;
    }
  }

  // Forces a rewrite of a loaded chunk (used by the cleaner to relocate a
  // chunk block whose contents are unchanged).
  void MarkChunkDirty(size_t chunk) {
    PFS_CHECK(ChunkLoaded(chunk));
    chunks_[chunk].dirty = true;
  }

  // Serialization of one chunk to/from exactly one layout block. The holes
  // past a chunk's prefix serialize as kNullAddr, and deserializing keeps
  // the prefix up to the last mapped slot.
  void SerializeChunk(size_t chunk, Serializer* out) const;
  Status DeserializeChunk(size_t chunk, Deserializer* in);

  // All currently-mapped addresses (liveness scans, frees).
  std::vector<uint64_t> AllAddresses() const;

 private:
  struct Chunk {
    std::vector<uint64_t> entries;  // the prefix; every slot past it is a hole
    bool loaded = false;            // set, or read from its block
    bool dirty = false;
  };

  size_t ChunkOf(uint64_t file_block) const {
    return static_cast<size_t>(file_block / entries_per_chunk_);
  }
  size_t SlotOf(uint64_t file_block) const {
    return static_cast<size_t>(file_block % entries_per_chunk_);
  }
  // Grows a prefix to `size` slots with holes, doubling its capacity (at
  // least four slots) up to a full chunk.
  void Extend(std::vector<uint64_t>* entries, size_t size) const;

  uint64_t entries_per_chunk_;
  uint32_t block_size_;
  std::vector<Chunk> chunks_;
};

}  // namespace pfs

#endif  // PFS_LAYOUT_BLOCK_MAP_H_
