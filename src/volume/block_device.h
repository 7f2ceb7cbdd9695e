// The abstract block device the storage layouts are written against (the
// volume layer's contract). A BlockDevice is a flat array of sectors with
// asynchronous read/write; a disk driver's partition slice satisfies it
// (SingleDiskVolume), and so do multi-disk compositions (ConcatVolume,
// StripedVolume, MirrorVolume). Because volumes sit below the buffer cache
// and above the drivers, the same volume code serves the simulator and the
// on-line file server — the cut-and-paste property one layer down.
#ifndef PFS_VOLUME_BLOCK_DEVICE_H_
#define PFS_VOLUME_BLOCK_DEVICE_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "core/status.h"
#include "sched/task.h"

namespace pfs {

class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  // Spans may be empty: the simulated backend accounts transfer time from
  // the sector count alone (the paper's "no real data is moved" rule).
  virtual Task<Status> Read(uint64_t sector, uint32_t count, std::span<std::byte> out) = 0;
  virtual Task<Status> Write(uint64_t sector, uint32_t count,
                             std::span<const std::byte> in) = 0;

  virtual uint64_t total_sectors() const = 0;
  virtual uint32_t sector_bytes() const = 0;

  // Scheduling hint: outstanding requests queued below this device. Mirrors
  // read from the member with the shortest queue; 0 when unknown.
  virtual size_t QueueDepthHint() const { return 0; }
};

}  // namespace pfs

#endif  // PFS_VOLUME_BLOCK_DEVICE_H_
