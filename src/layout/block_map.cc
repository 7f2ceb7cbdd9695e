#include "layout/block_map.h"

#include <algorithm>

namespace pfs {

void BlockMap::Extend(std::vector<uint64_t>* entries, size_t size) const {
  // A first prefix of four slots holds a typical small file in one
  // allocation (Sprite-like files average about four blocks).
  constexpr size_t kFirstSlots = 4;
  if (size > entries->capacity()) {
    entries->reserve(std::min<size_t>(
        std::max({size, 2 * entries->capacity(), kFirstSlots}), entries_per_chunk_));
  }
  entries->resize(size, kNullAddr);
}

std::vector<uint64_t> BlockMap::TruncateFrom(uint64_t from_block) {
  std::vector<uint64_t> freed;
  for (size_t chunk = ChunkOf(from_block); chunk < chunks_.size(); ++chunk) {
    Chunk& c = chunks_[chunk];
    const uint64_t chunk_base = chunk * entries_per_chunk_;
    const size_t first = from_block > chunk_base ? SlotOf(from_block) : 0;
    for (size_t i = first; i < c.entries.size(); ++i) {
      if (c.entries[i] != kNullAddr) {
        freed.push_back(c.entries[i]);
        c.dirty = true;
      }
    }
    c.entries.resize(std::min(first, c.entries.size()));
  }
  return freed;
}

void BlockMap::SerializeChunk(size_t chunk, Serializer* out) const {
  PFS_CHECK(ChunkLoaded(chunk));
  const std::vector<uint64_t>& entries = chunks_[chunk].entries;
  for (uint64_t i = 0; i < entries_per_chunk_; ++i) {
    out->PutU64(i < entries.size() ? entries[i] : kNullAddr);
  }
}

Status BlockMap::DeserializeChunk(size_t chunk, Deserializer* in) {
  if (chunk >= chunks_.size()) {
    chunks_.resize(chunk + 1);
  }
  Chunk& c = chunks_[chunk];
  c.loaded = true;
  c.entries.clear();
  for (size_t i = 0; i < entries_per_chunk_; ++i) {
    PFS_ASSIGN_OR_RETURN(const uint64_t addr, in->TakeU64());
    if (addr != kNullAddr) {
      Extend(&c.entries, i + 1);
      c.entries[i] = addr;
    }
  }
  c.dirty = false;
  return OkStatus();
}

std::vector<uint64_t> BlockMap::AllAddresses() const {
  std::vector<uint64_t> out;
  for (const Chunk& chunk : chunks_) {
    for (uint64_t addr : chunk.entries) {
      if (addr != kNullAddr) {
        out.push_back(addr);
      }
    }
  }
  return out;
}

}  // namespace pfs
