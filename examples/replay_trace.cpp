// Replay a Sprite-style trace in Patsy (the paper's §4/§5 workflow):
// generate a workload, write it to a trace file, read it back with the
// Sprite reader, replay it on the Allspice topology, and print the
// measurements. The stats sampler streams a cumulative report every 15
// simulated minutes (trace.sample_ms = 900000) to
// /tmp/pfs_example_trace_<name>-samples.json, one NDJSON line each.
//
//   ./replay_trace [trace-name] [scale] [--config file.scenario]
//   e.g. ./replay_trace 1b 0.5
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "patsy/patsy.h"
#include "workload/generator.h"

using namespace pfs;

int main(int argc, char** argv) {
  auto args = ParseScenarioArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "%s\n", args.status().ToString().c_str());
    return 2;
  }
  const bool config_given = args->scenario.has_value();
  const PatsyConfig base = args->scenario.value_or(SystemConfig::AllspiceSim());
  const std::vector<std::string>& positional = args->positional;
  const std::string trace_name = positional.size() > 0 ? positional[0] : "1a";
  const double scale = positional.size() > 1 ? std::atof(positional[1].c_str()) : 0.25;

  // Generate and round-trip through the on-disk trace format.
  const std::string path = "/tmp/pfs_example_trace_" + trace_name + ".sprite";
  const auto generated = GenerateWorkload(WorkloadParams::SpriteLike(trace_name, scale));
  if (!SpriteTraceWriter::WriteFile(path, generated).ok()) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  auto records = SpriteTraceReader::ReadFile(path);
  if (!records.ok()) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return 1;
  }
  std::printf("trace %s: %zu records in %s\n", trace_name.c_str(), records->size(),
              path.c_str());

  PatsyConfig config = base;  // the Allspice rebuild, or the --config scenario
  if (!config_given) {
    config.flush_policy = "write-delay";
  }
  // Paper §4: "The measurements are shown every 15 minutes of simulation
  // time and of the overall simulation."
  if (config.trace.sample_ms == 0) {
    config.trace.sample_ms = 900000;
  }
  if (config.trace.file.empty()) {
    config.trace.file = "/tmp/pfs_example_trace_" + trace_name + ".json";
  }
  auto result = RunTraceSimulation(config, std::move(*records));
  if (!result.ok()) {
    std::fprintf(stderr, "simulation failed: %s\n", result.status().ToString().c_str());
    return 1;
  }

  std::printf("simulated %.1f minutes of file-system time\n",
              result->simulated_time.ToSecondsF() / 60.0);
  std::printf("ops=%llu errors=%llu cache-hit-rate=%.1f%%\n",
              static_cast<unsigned long long>(result->ops),
              static_cast<unsigned long long>(result->errors),
              result->cache_hit_rate * 100.0);
  std::printf("overall: %s\n", result->overall.Summary().c_str());
  std::printf("reads:   %s\n", result->reads.Summary().c_str());
  std::printf("writes:  %s\n", result->writes.Summary().c_str());
  std::printf("reports every %u ms of simulated time: %s\n", config.trace.sample_ms,
              TraceSamplesPath(config.trace.file).c_str());
  return 0;
}
