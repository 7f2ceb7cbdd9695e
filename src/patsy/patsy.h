// Patsy: the instantiation of the cut-and-paste library to a file-system
// simulator (paper §4). PatsyServer is a thin facade over SystemBuilder that
// pins the simulated backend (simulated drivers, disks, SCSI busses, virtual
// clock) under the shared components; RunTraceSimulation replays a trace
// against it and gathers the overall and 15-minute-interval measurements the
// paper reports.
//
// The default topology is the rebuilt Sprite "Allspice" server of §5.1:
// three SCSI busses, ten HP 97560 disks, fourteen file systems (two of them
// hot spots by workload construction), segmented LFS everywhere.
#ifndef PFS_PATSY_PATSY_H_
#define PFS_PATSY_PATSY_H_

#include <memory>
#include <string>
#include <vector>

#include "system/system_builder.h"
#include "trace/replayer.h"

namespace pfs {

// The historical name for the simulator's system description. The same
// SystemConfig value drives the on-line server (online/pfs_server.h).
using PatsyConfig = SystemConfig;

class PatsyServer {
 public:
  // Assembles the simulated stack via SystemBuilder, overriding
  // config.backend to kSimulated; a config Validate() rejects is fatal here
  // (use SystemBuilder::Build directly for a Status instead).
  explicit PatsyServer(const PatsyConfig& config);

  // Adopts an already-built system (the Status-returning path;
  // RunTraceSimulation uses this after SystemBuilder::Build).
  explicit PatsyServer(std::unique_ptr<System> system) : system_(std::move(system)) {}

  PatsyServer(const PatsyServer&) = delete;
  PatsyServer& operator=(const PatsyServer&) = delete;

  // Formats all file systems and starts daemons; runs the scheduler until
  // setup completes.
  Status Setup() { return system_->Setup(); }

  System& system() { return *system_; }
  Scheduler* scheduler() { return system_->scheduler(); }
  LocalClient* client() { return system_->client(); }
  BufferCache* cache() { return system_->cache(); }
  StatsRegistry& stats() { return system_->stats(); }
  const SystemConfig& config() const { return system_->config(); }

  const std::vector<std::unique_ptr<DiskModel>>& disks() const { return system_->disks(); }
  const std::vector<std::unique_ptr<ScsiBus>>& busses() const { return system_->busses(); }
  const std::vector<std::unique_ptr<QueueingDiskDriver>>& drivers() const {
    return system_->drivers();
  }
  StorageLayout* layout(int fs_index) { return system_->layout(fs_index); }

 private:
  std::unique_ptr<System> system_;
};

struct SimulationResult {
  LatencyHistogram overall;
  LatencyHistogram reads;
  LatencyHistogram writes;
  LatencyHistogram metadata;
  uint64_t ops = 0;
  uint64_t errors = 0;
  double cache_hit_rate = 0;
  uint64_t absorbed_dirty_blocks = 0;
  uint64_t blocks_flushed = 0;
  Duration simulated_time;
  std::vector<std::string> interval_reports;  // every 15 simulated minutes
  std::string final_report;
};

struct SimulationOptions {
  // Paper §4: "The measurements are shown every 15 minutes of simulation
  // time and of the overall simulation."
  Duration report_interval = Duration::Minutes(15);
  bool collect_interval_reports = true;
  // Safety bound on simulated time (0 = none).
  Duration max_simulated_time;
};

// Builds a PatsyServer from `config`, replays `records`, and returns the
// measurements.
Result<SimulationResult> RunTraceSimulation(const PatsyConfig& config,
                                            std::vector<TraceRecord> records,
                                            const SimulationOptions& options = {});

}  // namespace pfs

#endif  // PFS_PATSY_PATSY_H_
