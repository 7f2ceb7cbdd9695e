#include "patsy/patsy.h"

namespace pfs {

PatsyServer::PatsyServer(const PatsyConfig& config) {
  SystemConfig sim = config;
  sim.backend = BackendKind::kSimulated;  // Patsy *is* the simulator facade
  auto system_or = SystemBuilder::Build(sim);
  PFS_CHECK_MSG(system_or.ok(), system_or.status().ToString().c_str());
  system_ = std::move(system_or).value();
}

Result<SimulationResult> RunTraceSimulation(const PatsyConfig& config,
                                            std::vector<TraceRecord> records,
                                            const SimulationOptions& options) {
  SystemConfig sim = config;
  sim.backend = BackendKind::kSimulated;
  PFS_ASSIGN_OR_RETURN(std::unique_ptr<System> system, SystemBuilder::Build(sim));
  PatsyServer server(std::move(system));
  PFS_RETURN_IF_ERROR(server.Setup());

  TraceReplayer replayer(server.scheduler(), server.client());
  replayer.AddRecords(std::move(records));
  server.stats().Register(&replayer);

  replayer.Start();
  if (options.max_simulated_time.IsZero()) {
    server.system().RunToCompletion();
  } else {
    server.system().RunForDuration(options.max_simulated_time);
  }

  SimulationResult result;
  result.overall = replayer.overall();
  result.reads = replayer.reads();
  result.writes = replayer.writes();
  result.metadata = replayer.metadata();
  result.ops = replayer.ops_completed();
  result.errors = replayer.errors();
  result.cache_hit_rate = server.cache()->HitRate();
  result.absorbed_dirty_blocks = server.cache()->absorbed_dirty_blocks();
  result.blocks_flushed = server.cache()->blocks_flushed();
  result.simulated_time = server.scheduler()->Now() - TimePoint();
  return result;
}

}  // namespace pfs
