// §5.2 lesson 2: "the thread that needed a cache block was also the one that
// initiated a cache flush and waited for the flush to complete ... The
// obvious solution was to make the flush policy an a-synchronous operation."
// Same trace, same policy, synchronous vs asynchronous space-making flushes.
#include <cstdio>

#include "bench_util.h"

using namespace pfs;
using namespace pfs::bench;

int main(int argc, char** argv) {
  JsonSink json("ablation_async_flush", argc, argv);
  const double scale = DefaultScale();
  std::printf("# Ablation: synchronous vs asynchronous cache flush (trace 1b, UPS policy)\n");
  WorkloadParams params = WorkloadParams::SpriteLike("1b", scale);
  SimulationOptions options;
  options.max_simulated_time = params.duration + Duration::Minutes(2);

  for (const bool async : {false, true}) {
    PatsyConfig config = BaseScenario(argc, argv);
    config.flush_policy = "ups";
    config.async_flush = async;
    auto result = RunTraceSimulation(config, GenerateWorkload(params), options);
    if (!result.ok()) {
      std::printf("ERROR: %s\n", result.status().ToString().c_str());
      return 1;
    }
    std::printf("%-12s mean=%.3fms p95=%.3fms p99=%.3fms writes: mean=%.3fms p99=%.3fms\n",
                async ? "async" : "sync", result->overall.mean().ToMillisF(),
                result->overall.Percentile(0.95).ToMillisF(),
                result->overall.Percentile(0.99).ToMillisF(),
                result->writes.mean().ToMillisF(),
                result->writes.Percentile(0.99).ToMillisF());
    if (json.enabled()) {
      char line[256];
      std::snprintf(line, sizeof(line),
                    "{\"bench\":\"ablation_async_flush\",\"async\":%s,\"scale\":%.3f,"
                    "\"mean_ms\":%.4f,\"p95_ms\":%.4f,\"p99_ms\":%.4f,"
                    "\"write_mean_ms\":%.4f,\"write_p99_ms\":%.4f}",
                    async ? "true" : "false", scale, result->overall.mean().ToMillisF(),
                    result->overall.Percentile(0.95).ToMillisF(),
                    result->overall.Percentile(0.99).ToMillisF(),
                    result->writes.mean().ToMillisF(),
                    result->writes.Percentile(0.99).ToMillisF());
      json.Append(line);
    }
  }
  std::printf("# expected: async flushing trims the allocation-path stalls (tail latency).\n");
  return 0;
}
