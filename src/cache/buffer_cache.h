// The file-system block cache (paper §2, "Caches").
//
// The base component administers all dirty, non-dirty and free blocks in LRU
// lists and allocates blocks from the cache: first from the free list, then
// by evicting from the non-dirty list, and when no non-dirty block exists it
// initiates a cache flush through the oldest dirty block. Replacement and
// flush behaviour are pluggable policies (replacement.h, flush_policy.h).
//
// In the real instantiation a chunk of memory is allocated at start and
// divided over the cache blocks; the simulator leaves block data empty and
// the DataMover accounts for copy time instead (paper §2).
#ifndef PFS_CACHE_BUFFER_CACHE_H_
#define PFS_CACHE_BUFFER_CACHE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/block.h"
#include "cache/flush_policy.h"
#include "cache/replacement.h"
#include "core/result.h"
#include "core/units.h"
#include "obs/metrics.h"
#include "sched/affinity.h"
#include "sched/scheduler.h"
#include "stats/histogram.h"
#include "stats/registry.h"

namespace pfs {

// The storage side of the cache: each mounted file system registers one of
// these to fill blocks from disk and to write dirty blocks back. Flushes are
// file-grouped because log-structured layouts want to write whole files
// contiguously.
class BlockIoHandler {
 public:
  virtual ~BlockIoHandler() = default;

  virtual Task<Status> FillBlock(const BlockId& id, CacheBlock* block) = 0;
  virtual Task<Status> WriteBlocks(uint64_t ino, std::span<CacheBlock* const> blocks) = 0;
};

enum class GetMode : uint8_t {
  kRead,       // caller needs current contents; fill from disk on miss
  kOverwrite,  // caller will overwrite the whole block; no fill needed
  kPastEof,    // the block lies wholly past EOF: a miss reads as zeroes, no fill
};

// Shard-affine (ShardAffine): sharded systems build one cache per shard, and
// every public entry point asserts the caller runs on the cache's own loop —
// LRU lists and block states interleave at scheduling points, so a foreign
// shard's access is a logical race TSAN cannot see.
class BufferCache : public StatSource, public ShardAffine {
 public:
  struct Config {
    uint32_t block_size = kDefaultBlockSize;
    uint64_t capacity_bytes = 8 * kMiB;
    // Real instantiation: allocate the arena and hand each block a slice.
    bool allocate_memory = false;
    // §5.2 lesson: perform space-making flushes on a dedicated flusher
    // thread instead of in the allocating thread.
    bool async_flush = false;
    // Async flusher keeps flushing until this many blocks are allocatable.
    size_t flusher_target_blocks = 8;
  };

  // Counts hits, misses, fills, evictions, flushed blocks and fill latency
  // in `metrics`, labelled {shard="<the scheduler's shard index>"}.
  BufferCache(Scheduler* sched, MetricRegistry* metrics, Config config,
              std::unique_ptr<ReplacementPolicy> replacement,
              std::unique_ptr<FlushPolicy> flush_policy);
  ~BufferCache() override;

  BufferCache(const BufferCache&) = delete;
  BufferCache& operator=(const BufferCache&) = delete;

  // Registration and startup.
  void RegisterHandler(uint32_t fs_id, BlockIoHandler* handler);
  void Start();  // attaches the flush policy, spawns the flusher if async

  // -- Block access (the File layer's interface) ---------------------------

  // Returns the block pinned; callers must Release() it. kRead fills from
  // disk on a miss; kOverwrite hands back an unfilled block; kPastEof hands
  // back a zeroed one, so no byte of the block's previous owner survives.
  Task<Result<CacheBlock*>> GetBlock(const BlockId& id, GetMode mode);

  // Admits the new dirty bytes against the flush policy (may block, e.g.
  // NVRAM budget) and moves the block to the dirty list. Call with the block
  // pinned, before modifying its contents.
  Task<Status> MarkDirty(CacheBlock* block);

  void Release(CacheBlock* block);

  // Per-file cache behaviour delegation (paper §2: a client can ask for a
  // replacement policy when opening a file; the multimedia file type uses
  // this to avoid flooding the cache).
  void SetFileHint(uint32_t fs_id, uint64_t ino, FileCacheHint hint);

  // -- Write-back ----------------------------------------------------------

  // Flushes every unpinned dirty block of the file (whole-file flush). Walks
  // only the file's own cached blocks, never the whole dirty list.
  Task<Status> FlushFile(uint32_t fs_id, uint64_t ino);

  // Flushes one block.
  Task<Status> FlushBlock(CacheBlock* block);

  // Flushes the oldest dirty data: the file owning the oldest dirty block,
  // or just that block. The flush policies' workhorse. Returns kNotFound if
  // there is nothing flushable.
  Task<Status> FlushOldest(bool whole_file);

  // Flushes everything (unmount / sync).
  Task<Status> SyncAll();

  // Drops all blocks of `ino` with block_no >= from_block. Dirty data dies
  // in memory — this is the overwrite absorption that write-saving policies
  // bank on. Pinned blocks are doomed and freed on release. Costs the file's
  // cached blocks, not the cache's: every unlink and truncate calls it.
  void InvalidateFile(uint32_t fs_id, uint64_t ino, uint64_t from_block = 0);

  // -- Introspection (policies, tests, stats plug-ins) ----------------------

  Scheduler* scheduler() { return sched_; }
  uint32_t block_size() const { return config_.block_size; }
  size_t total_blocks() const { return pool_.size(); }
  size_t free_count() const { return free_.size(); }
  size_t clean_count() const { return clean_.size(); }
  size_t dirty_count() const { return dirty_.size(); }
  uint64_t dirty_bytes() const { return dirty_.size() * config_.block_size; }
  const FlushPolicy& flush_policy() const { return *flush_policy_; }
  const ReplacementPolicy& replacement_policy() const { return *replacement_; }
  // The block map's bucket i holds the ids with BlockIdHash() & (count - 1) == i.
  size_t bucket_count() const { return buckets_.size(); }

  // Oldest dirty block not currently being written, or nullptr.
  CacheBlock* OldestFlushableDirty();

  // Fired on every dirty->clean transition or dirty-block invalidation;
  // NVRAM admission waits on this while another thread's flush is in flight.
  Event& cleaned_event() { return cleaned_; }

  // Sharded systems build one cache per shard; the suffix (".shard<i>")
  // keeps their registry names distinct. Single-shard systems keep "cache".
  void set_stat_suffix(std::string suffix) { stat_suffix_ = std::move(suffix); }

  // StatSource
  std::string stat_name() const override { return "cache" + stat_suffix_; }
  std::string StatJson() const override;

  uint64_t hits() const { return hits_->Total(); }
  // Miss-fill service times.
  LatencyHistogram fill_latency() const { return fill_latency_->Snapshot(); }
  uint64_t misses() const { return misses_->Total(); }
  double HitRate() const;
  uint64_t blocks_flushed() const { return blocks_flushed_->Total(); }
  uint64_t absorbed_dirty_blocks() const { return absorbed_.value(); }
  uint64_t evictions() const { return evictions_->Total(); }

 private:
  // A file's identity in the cache: a BlockId without the block number.
  struct FileId {
    uint32_t fs_id = 0;
    uint64_t ino = 0;
    bool operator==(const FileId&) const = default;
  };
  struct FileIdHash {
    size_t operator()(const FileId& f) const { return BlockIdHash()({f.fs_id, f.ino, 0}); }
  };
  // What the cache knows about one file: its blocks in the block map (linked
  // through CacheBlock::file_node) and its hint. Kept while either is
  // non-trivial.
  struct FileRecord {
    IntrusiveList<CacheBlock, &CacheBlock::file_node> blocks;
    FileCacheHint hint = FileCacheHint::kNormal;
  };

  // The one way into and out of the block map, keeping each file's list in
  // step.
  FileRecord& IndexBlock(CacheBlock* block);
  void UnindexBlock(CacheBlock* block);
  CacheBlock* FindBlock(const BlockId& id) const;
  size_t BucketOf(const BlockId& id) const {
    return BlockIdHash()(id) & (buckets_.size() - 1);
  }

  Task<Result<CacheBlock*>> AllocateSlot();
  void FreeBlock(CacheBlock* block);          // -> free list, identity cleared
  void Touch(CacheBlock* block);              // MRU + policy hooks
  void TransitionToClean(CacheBlock* block);  // dirty list -> clean list
  Task<Status> FlushBlockSet(uint32_t fs_id, uint64_t ino, std::vector<CacheBlock*> blocks);
  Task<> Flusher();  // async space-maker daemon

  Scheduler* sched_;
  Config config_;
  std::unique_ptr<ReplacementPolicy> replacement_;
  std::unique_ptr<FlushPolicy> flush_policy_;
  bool started_ = false;
  std::string stat_suffix_;

  // Default-initialized: a page of the arena is committed when a fill, a
  // write or a zeroing first touches it, not when the cache is built.
  std::unique_ptr<std::byte[]> arena_;
  std::vector<std::unique_ptr<CacheBlock>> pool_;
  // The block map: a power-of-two bucket array sized once from the pool,
  // chained through CacheBlock::next_in_bucket. It never rehashes and
  // allocates nothing per insert.
  std::vector<CacheBlock*> buckets_;
  BlockLruList free_;
  BlockLruList clean_;
  BlockLruList dirty_;  // ordered by first-dirtied time (front = oldest)

  // Node-based: a list's sentinel points at itself, so records never move.
  std::unordered_map<FileId, FileRecord, FileIdHash> files_;

  std::unordered_map<uint32_t, BlockIoHandler*> handlers_;

  Event cleaned_;
  Event space_available_;  // signalled when free/clean blocks appear
  Event flusher_wakeup_;   // async mode: allocation pressure

  CounterMetric* hits_;
  CounterMetric* misses_;
  CounterMetric* fills_;
  CounterMetric* evictions_;
  CounterMetric* blocks_flushed_;
  HistogramMetric* fill_latency_;  // miss-fill service time
  Counter files_flushed_;
  Counter absorbed_;
};

}  // namespace pfs

#endif  // PFS_CACHE_BUFFER_CACHE_H_
