#include "cache/buffer_cache.h"

#include <algorithm>

#include "core/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pfs {

BufferCache::BufferCache(Scheduler* sched, Config config,
                         std::unique_ptr<ReplacementPolicy> replacement,
                         std::unique_ptr<FlushPolicy> flush_policy)
    : sched_(sched),
      config_(config),
      replacement_(std::move(replacement)),
      flush_policy_(std::move(flush_policy)),
      cleaned_(sched),
      space_available_(sched),
      flusher_wakeup_(sched) {
  PFS_CHECK(replacement_ != nullptr);
  PFS_CHECK(flush_policy_ != nullptr);
  BindHomeShard(sched_);  // public entry points assert shard affinity
  const size_t blocks = static_cast<size_t>(config_.capacity_bytes / config_.block_size);
  PFS_CHECK_MSG(blocks >= 4, "cache too small");
  if (config_.allocate_memory) {
    arena_.resize(blocks * static_cast<size_t>(config_.block_size));
  }
  pool_.reserve(blocks);
  for (size_t i = 0; i < blocks; ++i) {
    auto block = std::make_unique<CacheBlock>(sched_);
    if (config_.allocate_memory) {
      block->data = std::span<std::byte>(arena_.data() + i * config_.block_size,
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

void BufferCache::BindMetrics(MetricRegistry* registry, uint32_t shard_label) {
  char labels[32];
  std::snprintf(labels, sizeof(labels), "shard=\"%u\"", shard_label);
  m_hits_ = registry->Counter("cache_hits_total", "Block lookups served from the cache", labels);
  m_misses_ = registry->Counter("cache_misses_total", "Block lookups that missed", labels);
  m_fills_ = registry->Counter("cache_fills_total", "Blocks filled from disk", labels);
  m_evictions_ = registry->Counter("cache_evictions_total", "Clean blocks evicted", labels);
  m_blocks_flushed_ =
      registry->Counter("cache_blocks_flushed_total", "Dirty blocks written back", labels);
  m_fill_ = registry->Histogram("cache_fill_seconds", "Miss-fill service time", labels,
                                /*scale=*/1e-9);
}

void BufferCache::SetFileHint(uint32_t fs_id, uint64_t ino, FileCacheHint hint) {
  PFS_ASSERT_SHARD();
  if (hint == FileCacheHint::kNormal) {
    file_hints_.erase({fs_id, ino});
  } else {
    file_hints_[{fs_id, ino}] = hint;
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
    auto it = map_.find(id);
    if (it != map_.end()) {
      CacheBlock* block = it->second;
      if (block->state == BlockState::kFilling) {
        // Another thread is filling this block; wait and re-check.
        co_await block->ready.Wait();
        continue;
      }
      hits_.Inc();
      if (m_hits_ != nullptr) {
        m_hits_->Inc();
      }
      ++block->pin_count;
      Touch(block);
      co_return block;
    }

    misses_.Inc();
    if (m_misses_ != nullptr) {
      m_misses_->Inc();
    }
    PFS_CO_ASSIGN_OR_RETURN(CacheBlock* block, co_await AllocateSlot());
    // AllocateSlot may have suspended; another thread may have inserted the
    // block meanwhile.
    if (map_.contains(id)) {
      FreeBlock(block);
      continue;
    }
    block->id = id;
    block->access_count = 0;
    block->last_access = sched_->Now();
    block->prev_access = TimePoint();
    block->doomed = false;
    auto hint_it = file_hints_.find({id.fs_id, id.ino});
    block->hint = hint_it == file_hints_.end() ? FileCacheHint::kNormal : hint_it->second;
    map_.emplace(id, block);
    replacement_->OnInsert(block);

    if (mode == GetMode::kOverwrite) {
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
    fills_.Inc();
    if (m_fills_ != nullptr) {
      m_fills_->Inc();
    }
    const TimePoint fill_begin = sched_->Now();
    const Status status = co_await handler_it->second->FillBlock(id, block);
    fill_latency_.Record(sched_->Now() - fill_begin);
    if (m_fill_ != nullptr) {
      m_fill_->RecordDuration(sched_->Now() - fill_begin);
    }
    {
      const Thread* self = sched_->current_thread();
      if (self != nullptr && self->trace.active()) {
        RecordSpan(self->trace, TraceStage::kCacheFill, self->id(), fill_begin, sched_->Now(),
                   config_.block_size);
      }
    }
    block->io_in_progress = false;
    --block->pin_count;
    if (!status.ok()) {
      map_.erase(block->id);
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
      evictions_.Inc();
      if (m_evictions_ != nullptr) {
        m_evictions_->Inc();
      }
      map_.erase(victim->id);
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
  if (block->lru_node.linked()) {
    // Caller already detached list membership where needed; only free-list
    // insertion happens here.
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
  dirty_fraction_.Record(static_cast<double>(dirty_.size()) /
                         static_cast<double>(pool_.size()));
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
    map_.erase(block->id);
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
                                        std::vector<CacheBlock*> blocks) {
  if (blocks.empty()) {
    co_return OkStatus();
  }
  auto handler_it = handlers_.find(fs_id);
  PFS_CHECK_MSG(handler_it != handlers_.end(), "no handler for fs");

  // Sort before capturing versions: versions[i] must describe blocks[i].
  std::sort(blocks.begin(), blocks.end(),
            [](const CacheBlock* a, const CacheBlock* b) {
              return a->id.block_no < b->id.block_no;
            });
  std::vector<uint64_t> versions;
  versions.reserve(blocks.size());
  for (CacheBlock* b : blocks) {
    ++b->pin_count;
    b->io_in_progress = true;
    versions.push_back(b->dirty_version);
  }
  const Status status = co_await handler_it->second->WriteBlocks(ino, blocks);
  for (size_t i = 0; i < blocks.size(); ++i) {
    CacheBlock* b = blocks[i];
    b->io_in_progress = false;
    --b->pin_count;
    if (status.ok() && b->state == BlockState::kDirty && b->dirty_version == versions[i] &&
        !b->doomed) {
      TransitionToClean(b);
      blocks_flushed_.Inc();
      if (m_blocks_flushed_ != nullptr) {
        m_blocks_flushed_->Inc();
      }
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
      map_.erase(b->id);
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
  std::vector<CacheBlock*> victims;
  for (CacheBlock& b : dirty_) {
    if (b.id.fs_id == fs_id && b.id.ino == ino && !b.io_in_progress && !b.doomed &&
        b.pin_count == 0) {
      victims.push_back(&b);
    }
  }
  if (victims.empty()) {
    co_return OkStatus();
  }
  files_flushed_.Inc();
  co_return co_await FlushBlockSet(fs_id, ino, std::move(victims));
}

Task<Status> BufferCache::FlushBlock(CacheBlock* block) {
  PFS_ASSERT_SHARD();
  if (block->state != BlockState::kDirty || block->io_in_progress || block->doomed) {
    co_return OkStatus();
  }
  std::vector<CacheBlock*> one;
  one.push_back(block);
  co_return co_await FlushBlockSet(block->id.fs_id, block->id.ino, std::move(one));
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
  std::vector<CacheBlock*> victims;
  for (auto& [id, block] : map_) {
    if (id.fs_id == fs_id && id.ino == ino && id.block_no >= from_block) {
      victims.push_back(block);
    }
  }
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
    map_.erase(b->id);
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
  const uint64_t total = hits_.value() + misses_.value();
  return total == 0 ? 0.0 : static_cast<double>(hits_.value()) / static_cast<double>(total);
}

std::string BufferCache::StatReport(bool with_histograms) const {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "policy=%s repl=%s blocks=%zu free=%zu clean=%zu dirty=%zu\n"
                "hits=%llu misses=%llu hit-rate=%.1f%% fills=%llu evictions=%llu\n"
                "blocks-flushed=%llu files-flushed=%llu absorbed-dirty=%llu\n",
                flush_policy_->name().c_str(), replacement_->name(), pool_.size(),
                free_.size(), clean_.size(), dirty_.size(),
                static_cast<unsigned long long>(hits_.value()),
                static_cast<unsigned long long>(misses_.value()), HitRate() * 100.0,
                static_cast<unsigned long long>(fills_.value()),
                static_cast<unsigned long long>(evictions_.value()),
                static_cast<unsigned long long>(blocks_flushed_.value()),
                static_cast<unsigned long long>(files_flushed_.value()),
                static_cast<unsigned long long>(absorbed_.value()));
  std::string out(buf);
  std::snprintf(buf, sizeof(buf), "fill latency: %s\n", fill_latency_.Summary().c_str());
  out += buf;
  if (with_histograms) {
    out += "dirty-fraction histogram:\n" + dirty_fraction_.BucketDump();
  }
  return out;
}

std::string BufferCache::StatJson() const {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"blocks\":%zu,\"free\":%zu,\"clean\":%zu,\"dirty\":%zu,"
                "\"hits\":%llu,\"misses\":%llu,\"hit_rate\":%.4f,\"fills\":%llu,"
                "\"evictions\":%llu,\"blocks_flushed\":%llu,\"files_flushed\":%llu,"
                "\"absorbed\":%llu,",
                pool_.size(), free_.size(), clean_.size(), dirty_.size(),
                static_cast<unsigned long long>(hits_.value()),
                static_cast<unsigned long long>(misses_.value()), HitRate(),
                static_cast<unsigned long long>(fills_.value()),
                static_cast<unsigned long long>(evictions_.value()),
                static_cast<unsigned long long>(blocks_flushed_.value()),
                static_cast<unsigned long long>(files_flushed_.value()),
                static_cast<unsigned long long>(absorbed_.value()));
  std::string out(buf);
  if (m_fill_ != nullptr) {
    // Bound to the metrics plane: the scrape and StatJson share one source.
    out += m_fill_->LatencyMsJsonObject("fill_ms");
  } else {
    std::snprintf(buf, sizeof(buf),
                  "\"fill_ms\":{\"mean\":%.4f,\"p50\":%.4f,\"p95\":%.4f,\"p99\":%.4f}",
                  fill_latency_.mean().ToMillisF(), fill_latency_.Percentile(0.5).ToMillisF(),
                  fill_latency_.Percentile(0.95).ToMillisF(),
                  fill_latency_.Percentile(0.99).ToMillisF());
    out += buf;
  }
  out += "}";
  return out;
}

void BufferCache::StatResetInterval() {
  dirty_fraction_.Reset();
  fill_latency_.Reset();
}

}  // namespace pfs
