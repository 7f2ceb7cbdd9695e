// §5.2 lesson 3: the NVRAM contention problem, found "through carefully
// analyzing and hand-crafting a work load". Write bursts against a sweep of
// NVRAM sizes: once a burst exceeds what the NVRAM can absorb, writers wait
// for the drain and write-back deteriorates toward write-through.
#include <cstdio>

#include "bench_util.h"

using namespace pfs;
using namespace pfs::bench;

int main(int argc, char** argv) {
  JsonSink json("ablation_nvram_contention", argc, argv);
  const double scale = GetScale();
  std::printf("# Ablation: NVRAM size vs write latency under 2 MiB write bursts\n");
  BurstWorkloadParams burst;
  burst.duration = Duration::SecondsF(120.0 * scale);
  SimulationOptions options;
  options.max_simulated_time = burst.duration + Duration::Minutes(2);

  std::printf("%-14s %14s %14s %14s %12s\n", "nvram", "write-mean-ms", "write-p99-ms",
              "read-mean-ms", "flushes");
  for (const uint64_t nvram_kb : {128, 512, 2048, 8192}) {
    PatsyConfig config = BaseScenario(argc, argv);
    config.flush_policy = "nvram-whole";
    config.nvram_bytes = nvram_kb * kKiB;
    auto result = RunTraceSimulation(config, GenerateBurstWorkload(burst), options);
    if (!result.ok()) {
      std::printf("ERROR: %s\n", result.status().ToString().c_str());
      return 1;
    }
    std::printf("%10lluKiB %14.3f %14.3f %14.3f %12llu\n",
                static_cast<unsigned long long>(nvram_kb),
                result->writes.mean().ToMillisF(),
                result->writes.Percentile(0.99).ToMillisF(),
                result->reads.mean().ToMillisF(),
                static_cast<unsigned long long>(result->blocks_flushed));
    if (json.enabled()) {
      char line[256];
      std::snprintf(line, sizeof(line),
                    "{\"bench\":\"ablation_nvram_contention\",\"nvram_kib\":%llu,"
                    "\"scale\":%.3f,\"write_mean_ms\":%.4f,\"write_p99_ms\":%.4f,"
                    "\"read_mean_ms\":%.4f,\"flushes\":%llu}",
                    static_cast<unsigned long long>(nvram_kb), scale,
                    result->writes.mean().ToMillisF(),
                    result->writes.Percentile(0.99).ToMillisF(),
                    result->reads.mean().ToMillisF(),
                    static_cast<unsigned long long>(result->blocks_flushed));
      json.Append(line);
    }
  }
  // The UPS reference: the whole cache absorbs the burst.
  PatsyConfig ups = BaseScenario(argc, argv);
  ups.flush_policy = "ups";
  auto result = RunTraceSimulation(ups, GenerateBurstWorkload(burst), options);
  if (result.ok()) {
    std::printf("%14s %14.3f %14.3f %14.3f %12llu\n", "UPS(all RAM)",
                result->writes.mean().ToMillisF(),
                result->writes.Percentile(0.99).ToMillisF(),
                result->reads.mean().ToMillisF(),
                static_cast<unsigned long long>(result->blocks_flushed));
    if (json.enabled()) {
      char line[256];
      std::snprintf(line, sizeof(line),
                    "{\"bench\":\"ablation_nvram_contention\",\"nvram_kib\":null,"
                    "\"policy\":\"ups\",\"scale\":%.3f,\"write_mean_ms\":%.4f,"
                    "\"write_p99_ms\":%.4f,\"read_mean_ms\":%.4f,\"flushes\":%llu}",
                    scale, result->writes.mean().ToMillisF(),
                    result->writes.Percentile(0.99).ToMillisF(),
                    result->reads.mean().ToMillisF(),
                    static_cast<unsigned long long>(result->blocks_flushed));
      json.Append(line);
    }
  }
  std::printf("# expected: small NVRAM -> write latency jumps toward disk speed;\n");
  std::printf("# the paper's conclusion: \"better to equip a file-system with a UPS\".\n");
  return 0;
}
