#include "layout/lfs_layout.h"

#include <algorithm>
#include <cstring>

#include "core/log.h"
#include "system/component_registry.h"

namespace pfs {
namespace {

constexpr uint64_t kSuperMagic = 0x5046535355505231ULL;  // "PFSSUPR1"
constexpr uint64_t kCkptMagic = 0x504653434b505431ULL;   // "PFSCKPT1"
constexpr uint32_t kVersion = 1;

// Serialized checkpoint-region size for a partition with `est_segments`
// segments — the single source of truth for the constructor's geometry and
// for MinPartitionBlocks.
uint64_t CheckpointBlocksFor(const LfsConfig& config, uint64_t est_segments) {
  const uint64_t header_bytes = 96;
  const uint64_t imap_bytes = static_cast<uint64_t>(config.max_inodes) * 8;
  const uint64_t usage_bytes = est_segments * 13;
  const uint64_t summary_bytes = static_cast<uint64_t>(config.segment_blocks) * 17 + 4;
  return CeilDiv(header_bytes + imap_bytes + usage_bytes + summary_bytes,
                 config.block_size);
}

}  // namespace

LfsLayout::LfsLayout(Scheduler* sched, BlockDev dev, LfsConfig config,
                     std::unique_ptr<CleanerPolicy> cleaner_policy)
    : MappedLayout(sched, std::move(dev), config.materialize_metadata),
      config_(config),
      cleaner_policy_(std::move(cleaner_policy)),
      log_mutex_(sched),
      segments_freed_(sched),
      cleaner_wakeup_(sched) {
  PFS_CHECK(cleaner_policy_ != nullptr);
  PFS_CHECK(config_.segment_blocks >= 4);
  PFS_CHECK(config_.block_size == dev_.block_size());

  // Geometry. The checkpoint region is sized from an upper bound on the
  // segment count, so Format and Mount always agree.
  geo_.checkpoint_blocks =
      CheckpointBlocksFor(config_, dev_.nblocks() / config_.segment_blocks);
  geo_.first_segment_block = 1 + 2 * geo_.checkpoint_blocks;
  PFS_CHECK_MSG(dev_.nblocks() > geo_.first_segment_block + 2 * config_.segment_blocks,
                "partition too small for LFS");
  geo_.nsegments = static_cast<uint32_t>((dev_.nblocks() - geo_.first_segment_block) /
                                         config_.segment_blocks);
  geo_.usable_blocks = config_.segment_blocks - 1;  // last block = summary
}

LfsLayout::~LfsLayout() = default;

uint64_t LfsLayout::MinPartitionBlocks(const LfsConfig& config, uint32_t min_segments) {
  // The checkpoint size depends on the partition size through the estimated
  // segment count; two fixed-point rounds converge for any realistic config.
  uint64_t nblocks = static_cast<uint64_t>(min_segments) * config.segment_blocks;
  for (int i = 0; i < 2; ++i) {
    const uint64_t ckpt = CheckpointBlocksFor(config, nblocks / config.segment_blocks);
    nblocks = 1 + 2 * ckpt + static_cast<uint64_t>(min_segments) * config.segment_blocks;
  }
  return nblocks;
}

uint64_t LfsLayout::SegmentOf(uint64_t addr) const {
  PFS_CHECK(addr >= geo_.first_segment_block);
  return (addr - geo_.first_segment_block) / config_.segment_blocks;
}

void LfsLayout::DecLive(uint64_t addr) {
  const uint64_t seg = SegmentOf(addr);
  SegmentInfo& info = segments_[seg];
  if (info.live_blocks > 0) {
    --info.live_blocks;
  }
}

void LfsLayout::SetSegmentState(uint32_t seg, SegmentState state) {
  SegmentState& current = segments_[seg].state;
  if (current == SegmentState::kFree) {
    --free_segments_;
  }
  if (state == SegmentState::kFree) {
    ++free_segments_;
  }
  current = state;
}

void LfsLayout::ResetSegmentTable() {
  segments_.assign(geo_.nsegments, SegmentInfo{});
  free_segments_ = geo_.nsegments;
}

uint64_t LfsLayout::FreeBlocksEstimate() const {
  return static_cast<uint64_t>(free_segments()) * geo_.usable_blocks +
         (geo_.usable_blocks - cur_off_);
}

double LfsLayout::WriteCost() const {
  const uint64_t data = data_blocks_written_.value();
  if (data == 0) {
    return 0.0;
  }
  return static_cast<double>(log_blocks_written_.value()) / static_cast<double>(data);
}

Result<uint32_t> LfsLayout::FindFreeSegment() {
  // The count is exact, so a full log needs no walk.
  for (uint32_t i = 0; free_segments_ > 0 && i < geo_.nsegments; ++i) {
    const uint32_t seg = (cur_seg_ + 1 + i) % geo_.nsegments;
    if (segments_[seg].state == SegmentState::kFree) {
      return seg;
    }
  }
  return Status(ErrorCode::kNoSpace, "log full: no free segment");
}

Task<Status> LfsLayout::CloseCurrentSegment() {
  // Serialize and write the summary block (last block of the segment), then
  // move the frontier to a fresh segment.
  const std::vector<SummaryEntry>& entries = summaries_[cur_seg_];
  std::vector<std::byte> buf;
  std::span<const std::byte> payload;
  if (config_.materialize_metadata) {
    Serializer s(&buf);
    s.PutU32(static_cast<uint32_t>(entries.size()));
    for (const SummaryEntry& e : entries) {
      s.PutU8(static_cast<uint8_t>(e.kind));
      s.PutU64(e.ino);
      s.PutU64(e.aux);
    }
    buf.resize(config_.block_size);
    payload = buf;
  }
  const uint64_t summary_addr = geo_.first_segment_block +
                                static_cast<uint64_t>(cur_seg_) * config_.segment_blocks +
                                geo_.usable_blocks;
  PFS_CO_RETURN_IF_ERROR(co_await dev_.Write(summary_addr, payload));
  log_blocks_written_.Inc();
  SetSegmentState(cur_seg_, SegmentState::kFull);

  PFS_CO_ASSIGN_OR_RETURN(const uint32_t next, FindFreeSegment());
  cur_seg_ = next;
  cur_off_ = 0;
  SetSegmentState(next, SegmentState::kActive);
  segments_[next].live_blocks = 0;
  summaries_[next].clear();
  summary_loaded_.insert(next);
  co_return OkStatus();
}

Task<Result<std::vector<uint64_t>>> LfsLayout::AppendItems(std::span<const LogItem> items,
                                                           bool for_cleaner) {
  PFS_CHECK(mounted_);
  if (items.empty()) {
    co_return std::vector<uint64_t>{};
  }
  for (;;) {
    Mutex::Guard guard = co_await log_mutex_.Lock();

    // Space admission: regular writers may not eat into the cleaner's
    // reserve; the cleaner itself may.
    const uint64_t reserve = for_cleaner ? 0 : config_.reserved_segments;
    const uint64_t free_segs = free_segments();
    const uint64_t usable_free =
        (free_segs > reserve ? (free_segs - reserve) * geo_.usable_blocks : 0) +
        (geo_.usable_blocks - cur_off_);
    if (usable_free < items.size()) {
      guard.Release();
      if (!config_.enable_cleaner || !cleaner_started_) {
        co_return Status(ErrorCode::kNoSpace, "log full and no cleaner running");
      }
      cleaner_wakeup_.Signal();
      co_await segments_freed_.Wait();
      continue;
    }

    std::vector<uint64_t> addrs;
    addrs.reserve(items.size());
    size_t done = 0;
    while (done < items.size()) {
      if (cur_off_ >= geo_.usable_blocks) {
        PFS_CO_RETURN_IF_ERROR(co_await CloseCurrentSegment());
      }
      const uint32_t space = geo_.usable_blocks - cur_off_;
      const uint32_t n =
          static_cast<uint32_t>(std::min<uint64_t>(space, items.size() - done));
      const uint64_t start_addr = geo_.first_segment_block +
                                  static_cast<uint64_t>(cur_seg_) * config_.segment_blocks +
                                  cur_off_;
      std::vector<std::byte> staging;
      std::span<const std::byte> payload;
      if (config_.materialize_metadata) {
        staging.assign(static_cast<size_t>(n) * config_.block_size, std::byte{0});
        for (uint32_t i = 0; i < n; ++i) {
          const LogItem& item = items[done + i];
          if (!item.data.empty()) {
            std::memcpy(staging.data() + static_cast<size_t>(i) * config_.block_size,
                        item.data.data(),
                        std::min<size_t>(item.data.size(), config_.block_size));
          }
        }
        payload = staging;
      }
      PFS_CO_RETURN_IF_ERROR(co_await dev_.WriteRun(start_addr, n, payload));
      for (uint32_t i = 0; i < n; ++i) {
        const LogItem& item = items[done + i];
        addrs.push_back(start_addr + i);
        summaries_[cur_seg_].push_back(SummaryEntry{item.kind, item.ino, item.aux});
      }
      segments_[cur_seg_].live_blocks += n;
      segments_[cur_seg_].write_seq = ++write_seq_;
      log_blocks_written_.Inc(n);
      cur_off_ += n;
      done += n;
    }
    guard.Release();
    if (config_.enable_cleaner && cleaner_started_ && free_segments() < config_.cleaner_low) {
      cleaner_wakeup_.Signal();
    }
    co_return addrs;
  }
}

// -- metadata helpers --------------------------------------------------------

Result<MappedLayout::InodeSlot> LfsLayout::LocateInode(uint64_t ino) const {
  if (ino == 0 || ino >= imap_.size()) {
    return Status(ErrorCode::kInvalidArgument, "bad inode number");
  }
  if (imap_[ino] == kNullAddr) {
    return Status(ErrorCode::kNotFound, "inode not allocated");
  }
  return InodeSlot{imap_[ino], 0};
}

void LfsLayout::ReleaseInodeSlot(uint64_t ino) {
  if (imap_[ino] != kNullAddr) {
    DecLive(imap_[ino]);
    imap_[ino] = kNullAddr;
  }
}

Task<Status> LfsLayout::PersistFileMetadata(uint64_t ino, bool for_cleaner) {
  PFS_CO_ASSIGN_OR_RETURN(Inode * inode, co_await GetInode(ino));
  BlockMap* bmap = GetBmap(ino);

  // Dirty block-map chunks first, so the inode we append points at them.
  std::vector<size_t> dirty_chunks;
  for (size_t chunk = 0; chunk < bmap->chunk_count(); ++chunk) {
    if (bmap->ChunkDirty(chunk)) {
      dirty_chunks.push_back(chunk);
    }
  }
  std::vector<std::vector<std::byte>> chunk_bufs;
  std::vector<LogItem> items;
  for (size_t chunk : dirty_chunks) {
    std::span<const std::byte> payload;
    if (config_.materialize_metadata) {
      chunk_bufs.emplace_back();
      Serializer s(&chunk_bufs.back());
      bmap->SerializeChunk(chunk, &s);
      chunk_bufs.back().resize(config_.block_size);
      payload = chunk_bufs.back();
    }
    items.push_back(LogItem{LogKind::kBmapChunk, ino, chunk, payload});
  }
  if (!items.empty()) {
    PFS_CO_ASSIGN_OR_RETURN(std::vector<uint64_t> addrs,
                            co_await AppendItems(items, for_cleaner));
    for (size_t i = 0; i < dirty_chunks.size(); ++i) {
      const size_t chunk = dirty_chunks[i];
      if (inode->bmap[chunk] != kNullAddr) {
        DecLive(inode->bmap[chunk]);
      }
      inode->bmap[chunk] = addrs[i];
      bmap->MarkChunkClean(chunk);
    }
  }

  // Then the inode itself.
  std::vector<std::byte> inode_buf;
  std::span<const std::byte> inode_payload;
  if (config_.materialize_metadata) {
    Serializer s(&inode_buf);
    inode->Serialize(&s);
    inode_buf.resize(config_.block_size);
    inode_payload = inode_buf;
  }
  const LogItem inode_item{LogKind::kInode, ino, 0, inode_payload};
  PFS_CO_ASSIGN_OR_RETURN(std::vector<uint64_t> iaddrs,
                          co_await AppendItems(std::span(&inode_item, 1), for_cleaner));
  if (imap_[ino] != kNullAddr) {
    DecLive(imap_[ino]);
  }
  imap_[ino] = iaddrs[0];
  co_return OkStatus();
}

// -- StorageLayout interface -------------------------------------------------

Task<Result<uint64_t>> LfsLayout::AllocInode(FileType type) {
  PFS_ASSERT_SHARD();
  PFS_CHECK(mounted_);
  for (uint64_t i = 0; i < imap_.size(); ++i) {
    const uint64_t ino = 1 + (next_ino_hint_ - 1 + i) % (imap_.size() - 1);
    if (imap_[ino] == kNullAddr && !InodeCached(ino)) {
      next_ino_hint_ = ino + 1;
      CacheNewInode(ino, type);
      co_return ino;
    }
  }
  co_return Status(ErrorCode::kNoSpace, "inode table full");
}

Task<Status> LfsLayout::PlaceFileBlocks(uint64_t ino, std::span<CacheBlock* const> blocks) {
  BlockMap* bmap = GetBmap(ino);
  std::vector<LogItem> items;
  items.reserve(blocks.size());
  for (const CacheBlock* b : blocks) {
    PFS_CHECK(b->id.ino == ino);
    PFS_CO_RETURN_IF_ERROR(
        co_await LoadChunk(ino, bmap, b->id.block_no / bmap->entries_per_chunk()));
    items.push_back(LogItem{LogKind::kData, ino, b->id.block_no,
                            std::span<const std::byte>(b->data.data(), b->data.size())});
  }
  PFS_CO_ASSIGN_OR_RETURN(std::vector<uint64_t> addrs,
                          co_await AppendItems(items, /*for_cleaner=*/false));
  for (size_t i = 0; i < blocks.size(); ++i) {
    const uint64_t old = bmap->Set(blocks[i]->id.block_no, addrs[i]);
    if (old != kNullAddr) {
      DecLive(old);
    }
  }
  data_blocks_written_.Inc(blocks.size());
  co_return OkStatus();
}

Task<Status> LfsLayout::RewriteFileMetadata(uint64_t ino) {
  BeginInoWrite(ino);
  const Status status = co_await PersistFileMetadata(ino, /*for_cleaner=*/true);
  PFS_CO_RETURN_IF_ERROR(co_await EndInoWrite(ino));
  co_return status;
}

// -- lifecycle ----------------------------------------------------------------

Task<Status> LfsLayout::Format() {
  PFS_ASSERT_SHARD();
  imap_.assign(config_.max_inodes, kNullAddr);
  ResetSegmentTable();
  summaries_.assign(geo_.nsegments, {});
  summary_loaded_.clear();
  DropCaches();
  checkpoint_seq_ = 0;
  write_seq_ = 0;
  next_ino_hint_ = 1;
  cur_seg_ = 0;
  cur_off_ = 0;
  SetSegmentState(0, SegmentState::kActive);
  summary_loaded_.insert(0);
  mounted_ = true;

  // Superblock.
  std::vector<std::byte> buf;
  std::span<const std::byte> payload;
  if (config_.materialize_metadata) {
    Serializer s(&buf);
    s.PutU64(kSuperMagic);
    s.PutU32(kVersion);
    s.PutU32(config_.block_size);
    s.PutU32(config_.segment_blocks);
    s.PutU32(config_.max_inodes);
    s.PutU32(geo_.nsegments);
    s.PutU64(geo_.checkpoint_blocks);
    s.PutU64(geo_.first_segment_block);
    buf.resize(config_.block_size);
    payload = buf;
  }
  PFS_CO_RETURN_IF_ERROR(co_await dev_.Write(0, payload));

  // Root directory.
  PFS_CO_ASSIGN_OR_RETURN(root_ino_, co_await AllocInode(FileType::kDirectory));
  PFS_CO_RETURN_IF_ERROR(co_await PersistFileMetadata(root_ino_, false));

  co_return co_await WriteCheckpoint();
}

std::vector<std::byte> LfsLayout::SerializeCheckpoint() const {
  std::vector<std::byte> buf;
  Serializer s(&buf);
  s.PutU64(kCkptMagic);
  s.PutU64(checkpoint_seq_);
  s.PutU32(cur_seg_);
  s.PutU32(cur_off_);
  s.PutU64(write_seq_);
  s.PutU64(root_ino_);
  s.PutU64(next_ino_hint_);
  s.PutU32(geo_.nsegments);
  s.PutU32(config_.max_inodes);
  for (uint64_t addr : imap_) {
    s.PutU64(addr);
  }
  for (const SegmentInfo& seg : segments_) {
    s.PutU8(static_cast<uint8_t>(seg.state));
    s.PutU32(seg.live_blocks);
    s.PutU64(seg.write_seq);
  }
  const std::vector<SummaryEntry>& cur = summaries_[cur_seg_];
  s.PutU32(static_cast<uint32_t>(cur.size()));
  for (const SummaryEntry& e : cur) {
    s.PutU8(static_cast<uint8_t>(e.kind));
    s.PutU64(e.ino);
    s.PutU64(e.aux);
  }
  buf.resize(geo_.checkpoint_blocks * config_.block_size);
  return buf;
}

Status LfsLayout::DeserializeCheckpoint(std::span<const std::byte> bytes) {
  Deserializer d(bytes);
  PFS_ASSIGN_OR_RETURN(const uint64_t magic, d.TakeU64());
  if (magic != kCkptMagic) {
    return Status(ErrorCode::kCorrupt, "bad checkpoint magic");
  }
  PFS_ASSIGN_OR_RETURN(checkpoint_seq_, d.TakeU64());
  PFS_ASSIGN_OR_RETURN(cur_seg_, d.TakeU32());
  PFS_ASSIGN_OR_RETURN(cur_off_, d.TakeU32());
  PFS_ASSIGN_OR_RETURN(write_seq_, d.TakeU64());
  PFS_ASSIGN_OR_RETURN(root_ino_, d.TakeU64());
  PFS_ASSIGN_OR_RETURN(next_ino_hint_, d.TakeU64());
  PFS_ASSIGN_OR_RETURN(const uint32_t nsegments, d.TakeU32());
  PFS_ASSIGN_OR_RETURN(const uint32_t max_inodes, d.TakeU32());
  if (nsegments != geo_.nsegments || max_inodes != config_.max_inodes) {
    return Status(ErrorCode::kCorrupt, "checkpoint geometry mismatch");
  }
  imap_.assign(config_.max_inodes, kNullAddr);
  for (uint64_t& addr : imap_) {
    PFS_ASSIGN_OR_RETURN(addr, d.TakeU64());
  }
  // Recounts the free segments from the loaded states.
  ResetSegmentTable();
  for (uint32_t i = 0; i < geo_.nsegments; ++i) {
    SegmentInfo& seg = segments_[i];
    PFS_ASSIGN_OR_RETURN(const uint8_t state, d.TakeU8());
    SetSegmentState(i, static_cast<SegmentState>(state));
    PFS_ASSIGN_OR_RETURN(seg.live_blocks, d.TakeU32());
    PFS_ASSIGN_OR_RETURN(seg.write_seq, d.TakeU64());
  }
  summaries_.assign(geo_.nsegments, {});
  summary_loaded_.clear();
  PFS_ASSIGN_OR_RETURN(const uint32_t count, d.TakeU32());
  std::vector<SummaryEntry>& cur = summaries_[cur_seg_];
  cur.clear();
  for (uint32_t i = 0; i < count; ++i) {
    SummaryEntry e;
    PFS_ASSIGN_OR_RETURN(const uint8_t kind, d.TakeU8());
    e.kind = static_cast<LogKind>(kind);
    PFS_ASSIGN_OR_RETURN(e.ino, d.TakeU64());
    PFS_ASSIGN_OR_RETURN(e.aux, d.TakeU64());
    cur.push_back(e);
  }
  summary_loaded_.insert(cur_seg_);
  return OkStatus();
}

Task<Status> LfsLayout::WriteCheckpoint() {
  ++checkpoint_seq_;
  std::vector<std::byte> buf;
  std::span<const std::byte> payload;
  if (config_.materialize_metadata) {
    buf = SerializeCheckpoint();
    payload = buf;
  }
  const uint64_t region = 1 + (checkpoint_seq_ % 2) * geo_.checkpoint_blocks;
  co_return co_await dev_.WriteRun(region, static_cast<uint32_t>(geo_.checkpoint_blocks),
                                   payload);
}

Task<Status> LfsLayout::ReadCheckpoint() {
  std::vector<std::byte> a(geo_.checkpoint_blocks * config_.block_size);
  std::vector<std::byte> b(geo_.checkpoint_blocks * config_.block_size);
  PFS_CO_RETURN_IF_ERROR(
      co_await dev_.ReadRun(1, static_cast<uint32_t>(geo_.checkpoint_blocks), a));
  PFS_CO_RETURN_IF_ERROR(co_await dev_.ReadRun(
      1 + geo_.checkpoint_blocks, static_cast<uint32_t>(geo_.checkpoint_blocks), b));

  auto seq_of = [](std::span<const std::byte> bytes) -> int64_t {
    Deserializer d(bytes);
    auto magic = d.TakeU64();
    if (!magic.ok() || *magic != kCkptMagic) {
      return -1;
    }
    auto seq = d.TakeU64();
    return seq.ok() ? static_cast<int64_t>(*seq) : -1;
  };
  const int64_t seq_a = seq_of(a);
  const int64_t seq_b = seq_of(b);
  if (seq_a < 0 && seq_b < 0) {
    co_return Status(ErrorCode::kCorrupt, "no valid checkpoint");
  }
  co_return DeserializeCheckpoint(seq_a >= seq_b ? a : b);
}

Task<Status> LfsLayout::Mount() {
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
  if (magic != kSuperMagic) {
    co_return Status(ErrorCode::kCorrupt, "bad superblock magic");
  }
  PFS_CO_ASSIGN_OR_RETURN(const uint32_t version, d.TakeU32());
  PFS_CO_ASSIGN_OR_RETURN(const uint32_t block_size, d.TakeU32());
  PFS_CO_ASSIGN_OR_RETURN(const uint32_t segment_blocks, d.TakeU32());
  PFS_CO_ASSIGN_OR_RETURN(const uint32_t max_inodes, d.TakeU32());
  if (version != kVersion || block_size != config_.block_size ||
      segment_blocks != config_.segment_blocks || max_inodes != config_.max_inodes) {
    co_return Status(ErrorCode::kCorrupt, "superblock/config mismatch");
  }
  PFS_CO_RETURN_IF_ERROR(co_await ReadCheckpoint());
  mounted_ = true;
  co_return OkStatus();
}

Task<Status> LfsLayout::Sync() {
  PFS_ASSERT_SHARD();
  PFS_CHECK(mounted_);
  // Persist every inode whose cached attributes may be newer than the log.
  PFS_CO_RETURN_IF_ERROR(co_await PersistCachedInodes());
  co_return co_await WriteCheckpoint();
}

// -- cleaner ------------------------------------------------------------------

void LfsLayout::Start() {
  if (config_.enable_cleaner && !cleaner_started_) {
    cleaner_started_ = true;
    sched_->SpawnDaemon("lfs.cleaner." + std::to_string(config_.fs_id), CleanerLoop());
  }
}

Task<> LfsLayout::CleanerLoop() {
  for (;;) {
    while (free_segments() >= config_.cleaner_low) {
      co_await cleaner_wakeup_.Wait();
    }
    while (free_segments() < config_.cleaner_high) {
      const int64_t victim =
          cleaner_policy_->PickSegment(segments_, geo_.usable_blocks, write_seq_);
      if (victim < 0) {
        break;  // nothing cleanable; wait for more activity
      }
      const Status status = co_await CleanSegment(static_cast<uint32_t>(victim));
      if (!status.ok()) {
        PFS_LOG_WARN("lfs", "cleaner error: %s", status.ToString().c_str());
        break;
      }
    }
    segments_freed_.Broadcast();
  }
}

Task<Status> LfsLayout::LoadSummaryIfNeeded(uint32_t seg) {
  if (summary_loaded_.contains(seg)) {
    co_return OkStatus();
  }
  if (!config_.materialize_metadata) {
    // Simulator summaries never leave memory.
    summary_loaded_.insert(seg);
    co_return OkStatus();
  }
  std::vector<std::byte> buf(config_.block_size);
  const uint64_t addr = geo_.first_segment_block +
                        static_cast<uint64_t>(seg) * config_.segment_blocks +
                        geo_.usable_blocks;
  PFS_CO_RETURN_IF_ERROR(co_await dev_.Read(addr, buf));
  Deserializer d(buf);
  PFS_CO_ASSIGN_OR_RETURN(const uint32_t count, d.TakeU32());
  std::vector<SummaryEntry>& entries = summaries_[seg];
  entries.clear();
  for (uint32_t i = 0; i < count; ++i) {
    SummaryEntry e;
    PFS_CO_ASSIGN_OR_RETURN(const uint8_t kind, d.TakeU8());
    e.kind = static_cast<LogKind>(kind);
    PFS_CO_ASSIGN_OR_RETURN(e.ino, d.TakeU64());
    PFS_CO_ASSIGN_OR_RETURN(e.aux, d.TakeU64());
    entries.push_back(e);
  }
  summary_loaded_.insert(seg);
  co_return OkStatus();
}

Task<bool> LfsLayout::IsLive(const SummaryEntry& entry, uint64_t addr) {
  if (entry.ino == 0 || entry.ino >= imap_.size()) {
    co_return false;
  }
  switch (entry.kind) {
    case LogKind::kInode:
      co_return imap_[entry.ino] == addr;
    case LogKind::kBmapChunk: {
      auto inode_or = co_await GetInode(entry.ino);
      if (!inode_or.ok()) {
        co_return false;
      }
      co_return entry.aux < Inode::kBmapChunks && (*inode_or)->bmap[entry.aux] == addr;
    }
    case LogKind::kData: {
      auto inode_or = co_await GetInode(entry.ino);
      if (!inode_or.ok()) {
        co_return false;
      }
      BlockMap* bmap = GetBmap(entry.ino);
      const Status chunk_status =
          co_await LoadChunk(entry.ino, bmap, entry.aux / bmap->entries_per_chunk());
      if (!chunk_status.ok()) {
        co_return false;
      }
      co_return bmap->Get(entry.aux) == addr;
    }
  }
  co_return false;
}

Task<Status> LfsLayout::CleanSegment(uint32_t seg) {
  PFS_CHECK(segments_[seg].state == SegmentState::kFull);
  PFS_CO_RETURN_IF_ERROR(co_await LoadSummaryIfNeeded(seg));
  const std::vector<SummaryEntry> entries = summaries_[seg];  // copy: stable view
  const uint64_t base =
      geo_.first_segment_block + static_cast<uint64_t>(seg) * config_.segment_blocks;
  cleaned_utilization_.Record(static_cast<double>(segments_[seg].live_blocks) /
                              static_cast<double>(geo_.usable_blocks));

  std::vector<std::byte> scratch;
  if (config_.materialize_metadata) {
    scratch.resize(config_.block_size);
  }
  // Files whose metadata (bmap chunk / inode block) lives in the victim.
  std::vector<uint64_t> metadata_files;

  for (size_t i = 0; i < entries.size(); ++i) {
    const SummaryEntry& entry = entries[i];
    const uint64_t addr = base + i;
    const bool live = co_await IsLive(entry, addr);
    if (!live) {
      continue;
    }
    switch (entry.kind) {
      case LogKind::kData: {
        // Relocate the block: read it and append it to the head of the log.
        std::span<std::byte> read_span =
            config_.materialize_metadata ? std::span<std::byte>(scratch) : std::span<std::byte>{};
        PFS_CO_RETURN_IF_ERROR(co_await dev_.Read(addr, read_span));
        cleaner_reads_.Inc();
        const LogItem item{LogKind::kData, entry.ino, entry.aux,
                           std::span<const std::byte>(read_span.data(), read_span.size())};
        PFS_CO_ASSIGN_OR_RETURN(std::vector<uint64_t> new_addrs,
                                co_await AppendItems(std::span(&item, 1), true));
        const uint64_t old = GetBmap(entry.ino)->Set(entry.aux, new_addrs[0]);
        if (old != kNullAddr) {
          DecLive(old);
        }
        blocks_relocated_.Inc();
        break;
      }
      case LogKind::kBmapChunk: {
        // Mark the chunk dirty so PersistFileMetadata rewrites it.
        BlockMap* bmap = GetBmap(entry.ino);
        const Status chunk_status =
            co_await LoadChunk(entry.ino, bmap, static_cast<size_t>(entry.aux));
        if (chunk_status.ok() && bmap->ChunkLoaded(entry.aux)) {
          bmap->MarkChunkDirty(entry.aux);
        }
        metadata_files.push_back(entry.ino);
        break;
      }
      case LogKind::kInode:
        metadata_files.push_back(entry.ino);
        break;
    }
  }
  // Rewrite metadata for affected files (dedup first).
  std::sort(metadata_files.begin(), metadata_files.end());
  metadata_files.erase(std::unique(metadata_files.begin(), metadata_files.end()),
                       metadata_files.end());
  for (uint64_t ino : metadata_files) {
    const Status status = co_await RewriteFileMetadata(ino);
    if (!status.ok() && status.code() != ErrorCode::kNotFound) {
      co_return status;
    }
    blocks_relocated_.Inc();
  }

  SetSegmentState(seg, SegmentState::kFree);
  segments_[seg].live_blocks = 0;
  summaries_[seg].clear();
  segments_cleaned_.Inc();
  segments_freed_.Broadcast();
  co_return OkStatus();
}

// -- stats --------------------------------------------------------------------

std::string LfsLayout::stat_name() const {
  return "lfs.fs" + std::to_string(config_.fs_id);
}

std::string LfsLayout::StatReport(bool with_histograms) const {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "cleaner=%s segments=%u free=%u frontier=%u/%u\n"
                "log-blocks=%llu data-blocks=%llu write-cost=%.2f\n"
                "cleaned=%llu relocated=%llu cleaner-reads=%llu\n",
                cleaner_policy_->name(), geo_.nsegments, free_segments(), cur_seg_, cur_off_,
                static_cast<unsigned long long>(log_blocks_written_.value()),
                static_cast<unsigned long long>(data_blocks_written_.value()), WriteCost(),
                static_cast<unsigned long long>(segments_cleaned_.value()),
                static_cast<unsigned long long>(blocks_relocated_.value()),
                static_cast<unsigned long long>(cleaner_reads_.value()));
  std::string out(buf);
  if (with_histograms) {
    out += "cleaned-segment utilization:\n" + cleaned_utilization_.BucketDump();
  }
  return out;
}

namespace {

LfsConfig LfsConfigFrom(const SystemConfig& config, int fs_index) {
  LfsConfig lfs;
  lfs.fs_id = static_cast<uint32_t>(fs_index);
  lfs.segment_blocks = config.lfs_segment_blocks;
  lfs.max_inodes = config.max_inodes;
  lfs.materialize_metadata = !config.simulated();
  return lfs;
}

}  // namespace

void RegisterLfsLayout() {
  LayoutRegistry::Register(
      "lfs",
      {[](LayoutContext ctx) -> std::unique_ptr<StorageLayout> {
         const auto* make_cleaner = CleanerRegistry::Find(ctx.config->cleaner);
         PFS_CHECK_MSG(make_cleaner != nullptr, "cleaner name validated before build");
         return std::make_unique<LfsLayout>(ctx.sched, std::move(ctx.dev),
                                            LfsConfigFrom(*ctx.config, ctx.fs_index),
                                            (*make_cleaner)());
       },
       [](const SystemConfig& config) {
         return LfsLayout::MinPartitionBlocks(LfsConfigFrom(config, 0));
       },
       [](const SystemConfig& config) {
         if (config.lfs_segment_blocks < 4) {
           return Status(ErrorCode::kInvalidArgument,
                         "lfs_segment_blocks: segments need at least 4 blocks");
         }
         return OkStatus();
       }});
}

}  // namespace pfs
