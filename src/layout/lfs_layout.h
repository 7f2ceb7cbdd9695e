// Segmented log-structured layout (paper §2: "Currently, we have implemented
// a segmented LFS. This system stores file-system updates to the end of the
// log, and is able to find files through an IFILE. The log-cleaner can be
// replaced and is plugged into the LFS component when the system starts").
//
// On-disk format (all units are file-system blocks within the partition):
//   0                      superblock
//   1 .. 1+C               checkpoint region A   (C blocks)
//   1+C .. 1+2C            checkpoint region B
//   S .. S+N*SEG           N segments of SEG blocks; the last block of each
//                          segment is its summary block
//
// The checkpoint (the IFILE) holds the inode map (ino -> log address of the
// inode's block), the segment usage table, and the log frontier; regions A/B
// alternate with a sequence number, so mount recovers the newer valid one.
//
// The simulator instantiation keeps all metadata in memory and issues the
// same I/O with empty buffers — helper components account for the time data
// movement would take (paper §2).
//
// The inode and block-map caches, chunk loading, deferred frees and
// truncation are MappedLayout's; this class decides only what is LFS: inodes
// found through the imap, released blocks counted out of their segment's
// live total, and every write appended to the log.
#ifndef PFS_LAYOUT_LFS_LAYOUT_H_
#define PFS_LAYOUT_LFS_LAYOUT_H_

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "layout/cleaner.h"
#include "layout/mapped_layout.h"
#include "sched/sync.h"
#include "stats/histogram.h"
#include "stats/registry.h"

namespace pfs {

struct LfsConfig {
  uint32_t fs_id = 0;
  uint32_t block_size = kDefaultBlockSize;
  uint32_t segment_blocks = 128;  // 512 KiB segments
  uint32_t max_inodes = 16384;
  // Cleaner watermarks, in free segments.
  uint32_t cleaner_low = 6;
  uint32_t cleaner_high = 12;
  bool enable_cleaner = true;
  // Segments the log may never consume, so the cleaner always has room to
  // relocate live data.
  uint32_t reserved_segments = 2;
  // Real instantiation: metadata is serialized to the device and read back.
  // Simulator: metadata stays in memory; I/O carries empty buffers.
  bool materialize_metadata = false;
};

class LfsLayout final : public MappedLayout, public StatSource {
 public:
  LfsLayout(Scheduler* sched, BlockDev dev, LfsConfig config,
            std::unique_ptr<CleanerPolicy> cleaner_policy);
  ~LfsLayout() override;

  // The smallest partition (in blocks) this layout can be formatted in with
  // `min_segments` of log, computed from the same serialized-geometry sizes
  // the constructor uses. Topology validation calls this before building.
  static uint64_t MinPartitionBlocks(const LfsConfig& config, uint32_t min_segments = 16);

  // StorageLayout
  const char* layout_name() const override { return "lfs"; }
  uint32_t fs_id() const override { return config_.fs_id; }
  uint32_t block_size() const override { return config_.block_size; }
  Task<Status> Format() override;
  Task<Status> Mount() override;
  Task<Status> Sync() override;
  uint64_t root_ino() const override { return root_ino_; }
  Task<Result<uint64_t>> AllocInode(FileType type) override;
  uint64_t TotalBlocks() const override { return dev_.nblocks(); }
  uint64_t FreeBlocksEstimate() const override;

  // Spawns the cleaner daemon (after Format/Mount, if enabled).
  void Start() override;

  // StatSource
  std::string stat_name() const override;
  std::string StatReport(bool with_histograms) const override;

  // Introspection for tests/benches.
  uint32_t free_segments() const { return free_segments_; }
  const std::vector<SegmentInfo>& segment_table() const { return segments_; }
  uint64_t log_blocks_written() const { return log_blocks_written_.value(); }
  uint64_t segments_cleaned() const { return segments_cleaned_.value(); }
  uint64_t blocks_relocated() const { return blocks_relocated_.value(); }
  const CleanerPolicy& cleaner_policy() const { return *cleaner_policy_; }
  // Write cost: log blocks written (incl. relocation) per data block written.
  double WriteCost() const;

 private:
  enum class LogKind : uint8_t { kData = 1, kBmapChunk = 2, kInode = 3 };

  struct SummaryEntry {
    LogKind kind;
    uint64_t ino;
    uint64_t aux;  // file block (kData) or chunk index (kBmapChunk)
  };

  struct LogItem {
    LogKind kind;
    uint64_t ino;
    uint64_t aux;
    std::span<const std::byte> data;  // empty in the simulator
  };

  struct Geometry {
    uint64_t checkpoint_blocks;
    uint64_t first_segment_block;
    uint32_t nsegments;
    uint32_t usable_blocks;  // per segment (minus summary)
  };

  // -- log machinery --
  Task<Result<std::vector<uint64_t>>> AppendItems(std::span<const LogItem> items,
                                                  bool for_cleaner);
  Task<Status> CloseCurrentSegment();
  Result<uint32_t> FindFreeSegment();
  // Every change of a segment's state goes through here, so free_segments_
  // stays exact without walking the table.
  void SetSegmentState(uint32_t seg, SegmentState state);
  // An all-free table of geo_.nsegments segments.
  void ResetSegmentTable();
  void DecLive(uint64_t addr);
  uint64_t SegmentOf(uint64_t addr) const;

  // -- MappedLayout hooks --
  // An inode fills its own log block, at its imap address.
  Result<InodeSlot> LocateInode(uint64_t ino) const override;
  void ReleaseBlock(uint64_t addr) override { DecLive(addr); }
  void ReleaseInodeSlot(uint64_t ino) override;
  Task<Status> PlaceFileBlocks(uint64_t ino, std::span<CacheBlock* const> blocks) override;
  Task<Status> PersistFile(uint64_t ino) override {
    return PersistFileMetadata(ino, /*for_cleaner=*/false);
  }

  // Appends dirty bmap chunks + the inode for `ino` to the log.
  Task<Status> PersistFileMetadata(uint64_t ino, bool for_cleaner);
  // The cleaner's rewrite of one file's metadata (appended with
  // for_cleaner), under the busy bracket.
  Task<Status> RewriteFileMetadata(uint64_t ino);

  // -- checkpoint --
  Task<Status> WriteCheckpoint();
  Task<Status> ReadCheckpoint();
  std::vector<std::byte> SerializeCheckpoint() const;
  Status DeserializeCheckpoint(std::span<const std::byte> bytes);

  // -- cleaner --
  Task<> CleanerLoop();
  Task<Status> CleanSegment(uint32_t seg);
  Task<Status> LoadSummaryIfNeeded(uint32_t seg);
  Task<bool> IsLive(const SummaryEntry& entry, uint64_t addr);

  LfsConfig config_;
  std::unique_ptr<CleanerPolicy> cleaner_policy_;
  Geometry geo_{};
  bool cleaner_started_ = false;

  // IFILE state.
  std::vector<uint64_t> imap_;  // ino -> inode log address (kNullAddr = free)
  std::vector<SegmentInfo> segments_;
  uint32_t free_segments_ = 0;  // segments_ entries in state kFree
  std::vector<std::vector<SummaryEntry>> summaries_;  // per segment, in memory
  std::unordered_set<uint32_t> summary_loaded_;
  uint64_t checkpoint_seq_ = 0;
  uint64_t root_ino_ = 0;
  uint64_t next_ino_hint_ = 1;

  // Log frontier.
  uint32_t cur_seg_ = 0;
  uint32_t cur_off_ = 0;
  uint64_t write_seq_ = 0;
  Mutex log_mutex_;
  Event segments_freed_;   // cleaner -> blocked writers
  Event cleaner_wakeup_;

  // Stats.
  Counter log_blocks_written_;
  Counter data_blocks_written_;
  Counter segments_cleaned_;
  Counter blocks_relocated_;
  Counter cleaner_reads_;
  Histogram cleaned_utilization_{0, 1.0, 20};
};

}  // namespace pfs

#endif  // PFS_LAYOUT_LFS_LAYOUT_H_
