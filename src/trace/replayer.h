// Trace replayer (paper §4): "Clients are modeled by separate threads of
// control ... The threads read a part of the trace file, group operations
// that obviously belong together (such as an open, read, ..., close
// sequence), and call the abstract-client interface to execute the operation
// on the simulated system. Since all of the trace records have timing
// information in them, the threads know how long they have to delay
// themselves before they can dispatch the next operation."
//
// The replayer also performs the paper's missing-parameter synthesis (via
// SynthesizeMissingTimes) and the "general simulation class" measurement
// duty: per-class and overall operation latencies.
#ifndef PFS_TRACE_REPLAYER_H_
#define PFS_TRACE_REPLAYER_H_

#include <map>
#include <vector>

#include "client/client_interface.h"
#include "sched/scheduler.h"
#include "stats/histogram.h"
#include "stats/registry.h"
#include "trace/trace.h"

namespace pfs {

class TraceReplayer : public StatSource {
 public:
  struct Options {
    // Honour record timestamps (sleep between operations). Off = replay
    // as fast as the system allows (stress mode).
    bool respect_timing = true;
  };

  TraceReplayer(Scheduler* sched, ClientInterface* client);
  TraceReplayer(Scheduler* sched, ClientInterface* client, Options options);

  // Takes the full record stream; records are partitioned by client id and
  // sorted by time within each client. Synthesizes unknown times first.
  void AddRecords(std::vector<TraceRecord> records);

  // Spawns one (non-daemon) thread per trace client; Scheduler::Run()
  // returns when the replay is complete.
  void Start();

  // -- measurements (valid after the run) --
  const LatencyHistogram& overall() const { return overall_; }
  const LatencyHistogram& reads() const { return reads_; }
  const LatencyHistogram& writes() const { return writes_; }
  const LatencyHistogram& metadata() const { return meta_; }
  uint64_t ops_completed() const { return ops_.value(); }
  uint64_t errors() const { return errors_.value(); }

  // StatSource (the 15-minute interval reports read these).
  std::string stat_name() const override { return "replayer"; }
  std::string StatJson() const override;

 private:
  Task<> ClientThread(uint32_t client_id);
  Task<Status> Dispatch(uint32_t client_id, const TraceRecord& record);
  Task<Result<Fd>> FdFor(uint32_t client_id, const std::string& path, bool create);

  Scheduler* sched_;
  ClientInterface* client_;
  Options options_;
  std::map<uint32_t, std::vector<TraceRecord>> per_client_;
  std::map<std::pair<uint32_t, std::string>, Fd> open_fds_;

  LatencyHistogram overall_;
  LatencyHistogram reads_;
  LatencyHistogram writes_;
  LatencyHistogram meta_;
  Counter ops_;
  Counter errors_;
};

}  // namespace pfs

#endif  // PFS_TRACE_REPLAYER_H_
