#include "cache/buffer_cache.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "core/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pfs {

BufferCache::BufferCache(Scheduler* sched, MetricRegistry* metrics, Config config,
                         std::unique_ptr<ReplacementPolicy> replacement,
                         std::unique_ptr<FlushPolicy> flush_policy)
    : sched_(sched),
      config_(config),
      replacement_(std::move(replacement)),
      flush_policy_(std::move(flush_policy)),
      cleaned_(sched),
      space_available_(sched),
      flusher_wakeup_(sched) {
  const std::string labels = "shard=\"" + std::to_string(sched_->shard_index()) + "\"";
  hits_ =
      metrics->Counter("cache_hits_total", "Block lookups served from the cache", labels);
  misses_ = metrics->Counter("cache_misses_total", "Block lookups that missed", labels);
  fills_ = metrics->Counter("cache_fills_total", "Blocks filled from disk", labels);
  evictions_ = metrics->Counter("cache_evictions_total", "Clean blocks evicted", labels);
  blocks_flushed_ =
      metrics->Counter("cache_blocks_flushed_total", "Dirty blocks written back", labels);
  fill_latency_ = metrics->Histogram("cache_fill_seconds", "Miss-fill service time",
                                     labels, /*scale=*/1e-9);
  PFS_CHECK(replacement_ != nullptr);
  PFS_CHECK(flush_policy_ != nullptr);
  BindHomeShard(sched_);  // public entry points assert shard affinity
  const size_t blocks = static_cast<size_t>(config_.capacity_bytes / config_.block_size);
  PFS_CHECK_MSG(blocks >= 4, "cache too small");
  if (config_.allocate_memory) {
    arena_ = std::make_unique_for_overwrite<std::byte[]>(blocks * config_.block_size);
  }
  buckets_.resize(std::bit_ceil(blocks));
  pool_.reserve(blocks);
  for (size_t i = 0; i < blocks; ++i) {
    auto block = std::make_unique<CacheBlock>(sched_);
    if (config_.allocate_memory) {
      block->data = std::span<std::byte>(arena_.get() + i * config_.block_size,
                                         config_.block_size);
    }
    free_.PushBack(*block);
    pool_.push_back(std::move(block));
  }
}

BufferCache::~BufferCache() = default;

void BufferCache::RegisterHandler(uint32_t fs_id, BlockIoHandler* handler) {
  PFS_CHECK(handler != nullptr);
  PFS_CHECK_MSG(handlers_.emplace(fs_id, handler).second, "fs_id registered twice");
}

void BufferCache::Start() {
  PFS_CHECK_MSG(!started_, "cache started twice");
  started_ = true;
  flush_policy_->Attach(this);
  if (config_.async_flush) {
    sched_->SpawnDaemon("cache.flusher", Flusher());
  }
}

void BufferCache::SetFileHint(uint32_t fs_id, uint64_t ino, FileCacheHint hint) {
  PFS_ASSERT_SHARD();
  if (hint != FileCacheHint::kNormal) {
    files_[{fs_id, ino}].hint = hint;
    return;
  }
  auto file = files_.find({fs_id, ino});
  if (file != files_.end()) {
    file->second.hint = hint;
    if (file->second.blocks.empty()) {
      files_.erase(file);
    }
  }
}

CacheBlock* BufferCache::FindBlock(const BlockId& id) const {
  CacheBlock* block = buckets_[BucketOf(id)];
  while (block != nullptr && block->id != id) {
    block = block->next_in_bucket;
  }
  return block;
}

BufferCache::FileRecord& BufferCache::IndexBlock(CacheBlock* block) {
  PFS_CHECK(FindBlock(block->id) == nullptr);
  CacheBlock*& head = buckets_[BucketOf(block->id)];
  block->next_in_bucket = head;
  head = block;
  FileRecord& file = files_[{block->id.fs_id, block->id.ino}];
  file.blocks.PushBack(*block);
  return file;
}

void BufferCache::UnindexBlock(CacheBlock* block) {
  CacheBlock** link = &buckets_[BucketOf(block->id)];
  while (*link != block) {
    PFS_CHECK_MSG(*link != nullptr, "unindexing a block that is not in the map");
    link = &(*link)->next_in_bucket;
  }
  *link = std::exchange(block->next_in_bucket, nullptr);
  auto file = files_.find({block->id.fs_id, block->id.ino});
  PFS_CHECK_MSG(file != files_.end(), "cached block without a file record");
  file->second.blocks.Remove(*block);
  if (file->second.blocks.empty() && file->second.hint == FileCacheHint::kNormal) {
    files_.erase(file);
  }
}

void BufferCache::Touch(CacheBlock* block) {
  block->prev_access = block->last_access;
  block->last_access = sched_->Now();
  replacement_->OnAccess(block);
  if (block->state == BlockState::kClean) {
    clean_.MoveToBack(*block);
  }
  // Dirty blocks keep their first-dirtied order; the 30-second policy ages
  // them by dirtied_at, not by access recency.
}

Task<Result<CacheBlock*>> BufferCache::GetBlock(const BlockId& id, GetMode mode) {
  PFS_ASSERT_SHARD();
  PFS_CHECK_MSG(started_, "GetBlock before Start");
  for (;;) {
    if (CacheBlock* block = FindBlock(id); block != nullptr) {
      if (block->state == BlockState::kFilling) {
        // Another thread is filling this block; wait and re-check.
        co_await block->ready.Wait();
        continue;
      }
      hits_->Inc();
      ++block->pin_count;
      Touch(block);
      co_return block;
    }

    misses_->Inc();
    PFS_CO_ASSIGN_OR_RETURN(CacheBlock* block, co_await AllocateSlot());
    // AllocateSlot may have suspended; another thread may have inserted the
    // block meanwhile.
    if (FindBlock(id) != nullptr) {
      FreeBlock(block);
      continue;
    }
    // One stamp for the access and, on a fill, the fill's start: nothing
    // between them suspends.
    const TimePoint now = sched_->Now();
    block->id = id;
    block->access_count = 0;
    block->last_access = now;
    block->prev_access = TimePoint();
    block->doomed = false;
    block->hint = IndexBlock(block).hint;
    replacement_->OnInsert(block);

    if (mode != GetMode::kRead) {
      if (mode == GetMode::kPastEof) {
        std::ranges::fill(block->data, std::byte{0});
      }
      block->state = BlockState::kClean;
      clean_.PushBack(*block);
      ++block->pin_count;
      co_return block;
    }

    // Fill from disk.
    auto handler_it = handlers_.find(id.fs_id);
    PFS_CHECK_MSG(handler_it != handlers_.end(), "no handler for fs");
    block->state = BlockState::kFilling;
    block->io_in_progress = true;
    ++block->pin_count;
    fills_->Inc();
    const TimePoint fill_begin = now;
    const Status status = co_await handler_it->second->FillBlock(id, block);
    const TimePoint fill_end = sched_->Now();
    fill_latency_->RecordDuration(fill_end - fill_begin);
    {
      const Thread* self = sched_->current_thread();
      if (self != nullptr && self->trace.active()) {
        RecordSpan(self->trace, TraceStage::kCacheFill, self->id(), fill_begin, fill_end,
                   config_.block_size);
      }
    }
    block->io_in_progress = false;
    --block->pin_count;
    if (!status.ok()) {
      UnindexBlock(block);
      FreeBlock(block);
      block->ready.Broadcast();
      co_return status;
    }
    block->state = BlockState::kClean;
    clean_.PushBack(*block);
    ++block->pin_count;
    block->ready.Broadcast();
    co_return block;
  }
}

Task<Result<CacheBlock*>> BufferCache::AllocateSlot() {
  for (;;) {
    if (CacheBlock* block = free_.PopFront(); block != nullptr) {
      co_return block;
    }
    if (CacheBlock* victim = replacement_->PickVictim(clean_); victim != nullptr) {
      evictions_->Inc();
      UnindexBlock(victim);
      clean_.Remove(*victim);
      victim->state = BlockState::kFree;
      co_return victim;
    }
    // No free and no clean blocks: make space through the flush policy
    // (inline) or the flusher daemon (asynchronous flush, §5.2).
    if (config_.async_flush) {
      flusher_wakeup_.Signal();
      co_await space_available_.Wait();
    } else {
      const Status status = co_await flush_policy_->MakeSpace();
      if (!status.ok() && status.code() != ErrorCode::kNotFound) {
        co_return status;
      }
      if (status.code() == ErrorCode::kNotFound) {
        // Nothing flushable right now (all dirty blocks pinned or in flight);
        // wait for any transition.
        co_await cleaned_.Wait();
      }
    }
  }
}

void BufferCache::FreeBlock(CacheBlock* block) {
  PFS_CHECK(block->pin_count == 0);
  if (block->lru_node.linked() || block->file_node.linked()) {
    // Caller already detached list membership and unindexed the block; only
    // free-list insertion happens here.
    PFS_UNREACHABLE();
  }
  block->state = BlockState::kFree;
  block->id = BlockId{};
  block->doomed = false;
  block->hint = FileCacheHint::kNormal;
  free_.PushBack(*block);
  space_available_.Broadcast();
}

Task<Status> BufferCache::MarkDirty(CacheBlock* block) {
  PFS_ASSERT_SHARD();
  PFS_CHECK_MSG(block->pin_count > 0, "MarkDirty on unpinned block");
  ++block->dirty_version;
  if (block->state == BlockState::kDirty) {
    co_return OkStatus();
  }
  PFS_CHECK(block->state == BlockState::kClean);
  PFS_CO_RETURN_IF_ERROR(co_await flush_policy_->AdmitDirty(config_.block_size));
  // Re-check: admission may have suspended and the block may have been
  // doomed by a concurrent truncate.
  if (block->doomed) {
    co_return Status(ErrorCode::kAborted, "block invalidated during admission");
  }
  if (block->state != BlockState::kDirty) {
    clean_.Remove(*block);
    block->state = BlockState::kDirty;
    block->dirtied_at = sched_->Now();
    dirty_.PushBack(*block);
  }
  co_return OkStatus();
}

void BufferCache::Release(CacheBlock* block) {
  PFS_ASSERT_SHARD();
  PFS_CHECK(block->pin_count > 0);
  --block->pin_count;
  if (block->pin_count == 0 && block->state == BlockState::kDirty && !block->doomed) {
    // The block just became flushable; wake policies waiting for one.
    cleaned_.Broadcast();
  }
  if (block->pin_count == 0 && block->doomed) {
    if (block->state == BlockState::kDirty) {
      dirty_.Remove(*block);
      absorbed_.Inc();
      cleaned_.Signal();
    } else if (block->state == BlockState::kClean) {
      clean_.Remove(*block);
    }
    UnindexBlock(block);
    FreeBlock(block);
    return;
  }
  if (block->pin_count == 0 && block->state == BlockState::kClean &&
      block->hint == FileCacheHint::kEvictFirst) {
    // Consumed-once data (multimedia streams): become the next victim.
    clean_.Remove(*block);
    clean_.PushFront(*block);
  }
}

CacheBlock* BufferCache::OldestFlushableDirty() {
  for (CacheBlock& b : dirty_) {
    // Pinned blocks are not flushable *now*; skipping them (rather than
    // returning them) keeps the flush policies from spinning on a block a
    // suspended writer still holds.
    if (!b.io_in_progress && !b.doomed && b.pin_count == 0) {
      return &b;
    }
  }
  return nullptr;
}

Task<Status> BufferCache::FlushBlockSet(uint32_t fs_id, uint64_t ino,
                                        std::span<CacheBlock*> blocks) {
  if (blocks.empty()) {
    co_return OkStatus();
  }
  auto handler_it = handlers_.find(fs_id);
  PFS_CHECK_MSG(handler_it != handlers_.end(), "no handler for fs");

  std::sort(blocks.begin(), blocks.end(),
            [](const CacheBlock* a, const CacheBlock* b) {
              return a->id.block_no < b->id.block_no;
            });
  for (CacheBlock* b : blocks) {
    ++b->pin_count;
    b->io_in_progress = true;
    b->flushed_version = b->dirty_version;
  }
  const Status status = co_await handler_it->second->WriteBlocks(ino, blocks);
  for (CacheBlock* b : blocks) {
    b->io_in_progress = false;
    --b->pin_count;
    if (status.ok() && b->state == BlockState::kDirty &&
        b->dirty_version == b->flushed_version && !b->doomed) {
      TransitionToClean(b);
      blocks_flushed_->Inc();
    }
    b->ready.Broadcast();
    if (b->pin_count == 0 && b->doomed) {
      // Invalidated while we wrote it; finish the job.
      if (b->state == BlockState::kDirty) {
        dirty_.Remove(*b);
        absorbed_.Inc();
      } else if (b->state == BlockState::kClean) {
        clean_.Remove(*b);
      }
      UnindexBlock(b);
      FreeBlock(b);
    }
  }
  co_return status;
}

void BufferCache::TransitionToClean(CacheBlock* block) {
  dirty_.Remove(*block);
  block->state = BlockState::kClean;
  clean_.PushBack(*block);
  cleaned_.Broadcast();
  space_available_.Broadcast();
}

Task<Status> BufferCache::FlushFile(uint32_t fs_id, uint64_t ino) {
  PFS_ASSERT_SHARD();
  // Leased: an fsync and the flusher can both be suspended in here.
  VectorPool<CacheBlock*>::Lease victims(&flush_sets_);
  if (auto file = files_.find({fs_id, ino}); file != files_.end()) {
    // Collection order is free: FlushBlockSet sorts by block_no.
    for (CacheBlock& b : file->second.blocks) {
      if (b.state == BlockState::kDirty && !b.io_in_progress && !b.doomed &&
          b.pin_count == 0) {
        victims->push_back(&b);
      }
    }
  }
  if (victims->empty()) {
    co_return OkStatus();
  }
  files_flushed_.Inc();
  co_return co_await FlushBlockSet(fs_id, ino, *victims);
}

Task<Status> BufferCache::FlushBlock(CacheBlock* block) {
  PFS_ASSERT_SHARD();
  if (block->state != BlockState::kDirty || block->io_in_progress || block->doomed) {
    co_return OkStatus();
  }
  CacheBlock* one[] = {block};
  co_return co_await FlushBlockSet(block->id.fs_id, block->id.ino, one);
}

Task<Status> BufferCache::FlushOldest(bool whole_file) {
  PFS_ASSERT_SHARD();
  CacheBlock* oldest = OldestFlushableDirty();
  if (oldest == nullptr) {
    co_return Status(ErrorCode::kNotFound, "no flushable dirty block");
  }
  if (whole_file) {
    co_return co_await FlushFile(oldest->id.fs_id, oldest->id.ino);
  }
  co_return co_await FlushBlock(oldest);
}

Task<Status> BufferCache::SyncAll() {
  PFS_ASSERT_SHARD();
  // Flush file by file until no flushable dirty blocks remain.
  for (;;) {
    const Status status = co_await FlushOldest(/*whole_file=*/true);
    if (status.code() == ErrorCode::kNotFound) {
      co_return OkStatus();
    }
    PFS_CO_RETURN_IF_ERROR(status);
  }
}

void BufferCache::InvalidateFile(uint32_t fs_id, uint64_t ino, uint64_t from_block) {
  PFS_ASSERT_SHARD();
  auto file = files_.find({fs_id, ino});
  if (file == files_.end()) {
    return;
  }
  std::vector<CacheBlock*> victims;
  for (CacheBlock& b : file->second.blocks) {
    if (b.id.block_no >= from_block) {
      victims.push_back(&b);
    }
  }
  // Unindexing the file's last block erases its record: `file` is dead below.
  for (CacheBlock* b : victims) {
    if (b->pin_count > 0 || b->io_in_progress) {
      b->doomed = true;  // freed on last release / flush completion
      continue;
    }
    if (b->state == BlockState::kDirty) {
      dirty_.Remove(*b);
      absorbed_.Inc();  // the write died in memory — saved disk traffic
      cleaned_.Broadcast();
    } else if (b->state == BlockState::kClean) {
      clean_.Remove(*b);
    }
    UnindexBlock(b);
    FreeBlock(b);
  }
}

Task<> BufferCache::Flusher() {
  for (;;) {
    co_await flusher_wakeup_.Wait();
    // Flush until the allocation pressure is relieved.
    while (free_.size() + clean_.size() < config_.flusher_target_blocks) {
      const Status status = co_await flush_policy_->MakeSpace();
      if (status.code() == ErrorCode::kNotFound) {
        // Everything flushable is in flight; wait for transitions.
        co_await cleaned_.Wait();
      }
    }
  }
}

double BufferCache::HitRate() const {
  const uint64_t hits = hits_->Total();
  const uint64_t total = hits + misses_->Total();
  return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
}

std::string BufferCache::StatJson() const {
  char buf[640];
  std::snprintf(buf, sizeof(buf),
                "{\"flush_policy\":\"%s\",\"replacement\":\"%s\",\"blocks\":%zu,"
                "\"free\":%zu,\"clean\":%zu,\"dirty\":%zu,"
                "\"hits\":%llu,\"misses\":%llu,\"hit_rate\":%.4f,\"fills\":%llu,"
                "\"evictions\":%llu,\"blocks_flushed\":%llu,\"files_flushed\":%llu,"
                "\"absorbed\":%llu,",
                flush_policy_->name().c_str(), replacement_->name(), pool_.size(),
                free_.size(), clean_.size(), dirty_.size(),
                static_cast<unsigned long long>(hits()),
                static_cast<unsigned long long>(misses()), HitRate(),
                static_cast<unsigned long long>(fills_->Total()),
                static_cast<unsigned long long>(evictions()),
                static_cast<unsigned long long>(blocks_flushed()),
                static_cast<unsigned long long>(files_flushed_.value()),
                static_cast<unsigned long long>(absorbed_.value()));
  std::string out(buf);
  out += fill_latency_->LatencyMsJsonObject("fill_ms");
  out += "}";
  return out;
}

}  // namespace pfs
