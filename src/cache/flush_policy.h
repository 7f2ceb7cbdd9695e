// Cache flush (persistency) policies — the subject of the paper's §5.1
// experiments:
//
//   * WriteDelayPolicy — the Unix SVR4 30-second-update baseline: a scanner
//     thread examines the cache every few seconds and flushes the file that
//     owns the oldest dirty block once it exceeds the age limit.
//   * UpsPolicy — the write-saving extreme: the machine has a UPS, so dirty
//     data is only written when the cache runs out of non-dirty blocks.
//   * NvramPolicy — dirty data may only live in a small NVRAM buffer (4 MB
//     in the paper): writers block until their dirty bytes fit, draining the
//     oldest dirty data to disk. Variants flush the whole file owning the
//     oldest block, or just that block.
//
// A policy may also be asked by the cache to MakeSpace() when allocation
// finds no clean or free block.
#ifndef PFS_CACHE_FLUSH_POLICY_H_
#define PFS_CACHE_FLUSH_POLICY_H_

#include <cstdint>
#include <string>

#include "core/status.h"
#include "core/units.h"
#include "sched/task.h"
#include "sched/time.h"

namespace pfs {

class BufferCache;

class FlushPolicy {
 public:
  virtual ~FlushPolicy() = default;

  virtual std::string name() const = 0;

  // Binds the policy to its cache and spawns any daemon threads. Called once
  // from BufferCache::Start().
  virtual void Attach(BufferCache* cache) { cache_ = cache; }

  // Admission control for new dirty bytes; blocks the writer until the
  // policy allows the data to become dirty (NVRAM budget). Called *before*
  // the block is marked dirty.
  virtual Task<Status> AdmitDirty(uint64_t bytes) {
    (void)bytes;
    co_return OkStatus();
  }

  // Frees at least one block's worth of space when allocation is stuck
  // (no free and no clean blocks). Default: flush the oldest dirty data.
  virtual Task<Status> MakeSpace();

 protected:
  BufferCache* cache_ = nullptr;
};

class WriteDelayPolicy final : public FlushPolicy {
 public:
  std::string name() const override { return "write-delay-30s"; }
  void Attach(BufferCache* cache) override;

 private:
  static constexpr Duration kMaxAge = Duration::Seconds(30);
  static constexpr Duration kScanInterval = Duration::Seconds(5);

  Task<> Scanner();
};

// Flushes the single oldest dirty block: the paper's UPS experiment uses the
// naive single-block flush, and trace 5 shows its cost.
class UpsPolicy final : public FlushPolicy {
 public:
  std::string name() const override { return "ups-write-saving"; }
  Task<Status> MakeSpace() override;
};

class NvramPolicy final : public FlushPolicy {
 public:
  struct Options {
    uint64_t nvram_bytes = 4 * kMiB;
    bool whole_file = true;  // whole-file vs partial-file flush variants
  };

  NvramPolicy() = default;
  explicit NvramPolicy(Options options) : options_(options) {}

  std::string name() const override {
    return options_.whole_file ? "nvram-whole-file" : "nvram-partial-file";
  }

  Task<Status> AdmitDirty(uint64_t bytes) override;
  Task<Status> MakeSpace() override;

  uint64_t nvram_bytes() const { return options_.nvram_bytes; }

 private:
  Options options_;
};

}  // namespace pfs

#endif  // PFS_CACHE_FLUSH_POLICY_H_
