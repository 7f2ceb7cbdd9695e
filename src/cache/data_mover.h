// DataMover: the helper component that differs between the on-line system
// and the simulator (paper §2: "The difference between a simulated cache and
// a real cache is the lack of a data pointer in the simulated case. In all
// cases where data is moved between buffers, the simulator delays the
// current thread for the amount of time it would take ... to copy the data.")
#ifndef PFS_CACHE_DATA_MOVER_H_
#define PFS_CACHE_DATA_MOVER_H_

#include <cstdint>
#include <cstring>
#include <span>

#include "core/check.h"
#include "sched/affinity.h"
#include "sched/scheduler.h"
#include "sched/task.h"

namespace pfs {

// The simulated host (the paper's experiments rebuild a Sun 4/280 server).
struct HostModel {
  uint64_t mem_bandwidth_bytes_per_sec = 50'000'000;  // buffer-copy bandwidth
  Duration per_op_cpu = Duration::Micros(150);        // request decode/dispatch cost
};

// Shard-affine (ShardAffine): sharded systems build one mover per shard
// (SimDataMover sleeps on its shard's clock; RealDataMover is bound by
// SystemBuilder), and Move/ChargeOpCost assert the caller's loop.
class DataMover : public ShardAffine {
 public:
  virtual ~DataMover() = default;

  // Moves `bytes` between a cache block and a client buffer. Either span may
  // be empty in the simulator. An empty source with a real destination (a
  // write that carries no buffer, like the NFS front end's WRITE) moves
  // zeroes.
  virtual Task<> Move(std::span<std::byte> dst, std::span<const std::byte> src,
                      uint64_t bytes) = 0;

  // Charges the fixed CPU cost of one client operation.
  virtual Task<> ChargeOpCost() = 0;
};

// Patsy's mover: pure time accounting.
class SimDataMover final : public DataMover {
 public:
  SimDataMover(Scheduler* sched, HostModel host) : sched_(sched), host_(host) {
    BindHomeShard(sched_, "data_mover");
  }

  Task<> Move(std::span<std::byte>, std::span<const std::byte>, uint64_t bytes) override {
    PFS_ASSERT_SHARD();
    co_await sched_->Sleep(Duration::Nanos(
        static_cast<int64_t>(bytes * 1000000000ULL / host_.mem_bandwidth_bytes_per_sec)));
  }

  Task<> ChargeOpCost() override {
    PFS_ASSERT_SHARD();
    co_await sched_->Sleep(host_.per_op_cpu);
  }

 private:
  Scheduler* sched_;
  HostModel host_;
};

// PFS's mover: actually copies; the host's real memory system provides the
// timing.
class RealDataMover final : public DataMover {
 public:
  Task<> Move(std::span<std::byte> dst, std::span<const std::byte> src,
              uint64_t bytes) override {
    PFS_ASSERT_SHARD();
    if (dst.empty() || bytes == 0) {
      co_return;
    }
    PFS_CHECK(dst.size() >= bytes);
    if (src.empty()) {
      std::memset(dst.data(), 0, bytes);
    } else {
      PFS_CHECK(src.size() >= bytes);
      std::memcpy(dst.data(), src.data(), bytes);
    }
  }

  Task<> ChargeOpCost() override { co_return; }
};

}  // namespace pfs

#endif  // PFS_CACHE_DATA_MOVER_H_
