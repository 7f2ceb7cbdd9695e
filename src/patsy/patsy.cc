#include "patsy/patsy.h"

#include <cstdio>

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

  SimulationResult result;

  // The paper's 15-minute interval reporter.
  struct ReporterState {
    bool stop = false;
  };
  ReporterState reporter_state;
  if (options.collect_interval_reports) {
    server.scheduler()->SpawnDaemon(
        "patsy.reporter",
        [](PatsyServer* srv, SimulationResult* res, const SimulationOptions* opts,
           ReporterState* state) -> Task<> {
          for (;;) {
            co_await srv->scheduler()->Sleep(opts->report_interval);
            if (state->stop) {
              co_return;
            }
            char header[96];
            std::snprintf(header, sizeof(header), "-- interval report @ %.0f min --\n",
                          (srv->scheduler()->Now() - TimePoint()).ToSecondsF() / 60.0);
            res->interval_reports.push_back(header + srv->stats().ReportAll());
          }
        }(&server, &result, &options, &reporter_state));
  }

  replayer.Start();
  if (options.max_simulated_time.IsZero()) {
    server.system().RunToCompletion();
  } else {
    server.system().RunForDuration(options.max_simulated_time);
  }
  reporter_state.stop = true;

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
  result.final_report = server.stats().ReportAll();
  return result;
}

}  // namespace pfs
