// Policy lab: the paper's development loop in one binary. Pick a workload,
// sweep the cache flush policies off-line, and see which one you would
// migrate into the production file system.
//
//   ./policy_lab [trace-name] [scale] [--config file.scenario]
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
  // The Allspice rebuild unless --config says otherwise.
  const PatsyConfig base = args->scenario.value_or(PatsyConfig{});
  const std::vector<std::string>& positional = args->positional;
  const std::string trace_name = positional.size() > 0 ? positional[0] : "1a";
  const double scale = positional.size() > 1 ? std::atof(positional[1].c_str()) : 0.25;

  std::printf("policy lab: trace %s (scale %.2f) on the Allspice rebuild\n\n",
              trace_name.c_str(), scale);
  std::printf("%-20s %10s %10s %10s %12s %12s\n", "policy", "mean-ms", "p95-ms", "hit-rate",
              "flushed", "absorbed");

  const WorkloadParams params = WorkloadParams::SpriteLike(trace_name, scale);
  // §5.3: the paper migrated UPS-backed write saving into the production PFS.
  const std::string paper_pick = "ups";
  double paper_pick_mean = 0;
  double best_mean = 1e100;
  std::string best_policy;
  for (const char* policy : {"write-delay", "nvram-partial", "nvram-whole", "ups"}) {
    PatsyConfig config = base;
    config.flush_policy = policy;
    auto result = RunTraceSimulation(config, GenerateWorkload(params));
    if (!result.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", policy, result.status().ToString().c_str());
      return 1;
    }
    const double mean_ms = result->overall.mean().ToMillisF();
    std::printf("%-20s %10.3f %10.3f %9.1f%% %12llu %12llu\n", policy, mean_ms,
                result->overall.Percentile(0.95).ToMillisF(), result->cache_hit_rate * 100.0,
                static_cast<unsigned long long>(result->blocks_flushed),
                static_cast<unsigned long long>(result->absorbed_dirty_blocks));
    if (mean_ms < best_mean) {
      best_mean = mean_ms;
      best_policy = policy;
    }
    if (policy == paper_pick) {
      paper_pick_mean = mean_ms;
    }
  }
  const char* agreement = best_policy == paper_pick       ? "agrees with"
                          : paper_pick_mean == best_mean ? "ties with"
                                                         : "differs from";
  std::printf("\nverdict: migrate '%s' into the on-line PFS (mean %.3f ms)\n",
              best_policy.c_str(), best_mean);
  std::printf("paper's pick (§5.3): '%s', mean %.3f ms here; %s the measured pick\n",
              paper_pick.c_str(), paper_pick_mean, agreement);
  return 0;
}
