// Connections: the links between host and disk sub-system (paper §4).
//
// A connection is acquired for each protocol phase (command, data-in,
// data-out), released in between — modelling SCSI disconnect/reconnect — and
// charges the calling thread the time a transfer of N bytes would take. When
// several controllers contend, acquisition arbitrates among them and the
// losers wait; that is exactly how the paper simulates SCSI bus contention.
#ifndef PFS_BUS_CONNECTION_H_
#define PFS_BUS_CONNECTION_H_

#include <cstdint>

#include "sched/task.h"
#include "sched/time.h"

namespace pfs {

class Connection {
 public:
  virtual ~Connection() = default;

  // Wins arbitration for exclusive use of the connection; blocks while
  // another initiator holds it.
  virtual Task<> Acquire() = 0;

  // Releases the connection (disconnect); the next arbitration winner
  // proceeds.
  virtual void Release() = 0;

  // Occupies the (held) connection for the duration of an n-byte transfer.
  virtual Task<> Transfer(uint64_t bytes) = 0;

  virtual Duration TransferTime(uint64_t bytes) const = 0;
};

}  // namespace pfs

#endif  // PFS_BUS_CONNECTION_H_
