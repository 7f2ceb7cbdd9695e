// Cleaner ablation: the paper makes the log-cleaner a plug-in (§2). Greedy
// vs cost-benefit under sustained overwrite pressure on a nearly-full log:
// write cost (log blocks per data block) and operation latency.
#include <cstdio>

#include "bench_util.h"
#include "layout/lfs_layout.h"

using namespace pfs;
using namespace pfs::bench;

int main(int argc, char** argv) {
  JsonSink json("ablation_cleaner", argc, argv);
  const double scale = DefaultScale();
  std::printf("# Ablation: LFS cleaner policy under overwrite pressure\n");
  WorkloadParams params = WorkloadParams::SpriteLike("2b", scale);
  params.p_rewrite_session = 0.55;  // hammer the overwrite path
  params.p_read_session = 0.25;
  std::printf("%-14s %12s %12s %14s %14s\n", "cleaner", "mean-ms", "p95-ms",
              "segs-cleaned", "write-cost");
  for (const char* cleaner : {"greedy", "cost-benefit"}) {
    PatsyConfig config = BaseScenario(argc, argv);
    config.flush_policy = "write-delay";
    config.cleaner = cleaner;
    PatsyServer server(config);
    if (!server.Setup().ok()) {
      std::printf("setup failed\n");
      return 1;
    }
    TraceReplayer replayer(server.scheduler(), server.client());
    replayer.AddRecords(GenerateWorkload(params));
    replayer.Start();
    server.scheduler()->Run();

    uint64_t cleaned = 0;
    double write_cost = 0;
    int lfs_count = 0;
    for (int f = 0; f < config.num_filesystems; ++f) {
      if (auto* lfs = dynamic_cast<LfsLayout*>(server.layout(f)); lfs != nullptr) {
        cleaned += lfs->segments_cleaned();
        write_cost += lfs->WriteCost();
        ++lfs_count;
      }
    }
    std::printf("%-14s %12.3f %12.3f %14llu %14.2f\n", cleaner,
                replayer.overall().mean().ToMillisF(),
                replayer.overall().Percentile(0.95).ToMillisF(),
                static_cast<unsigned long long>(cleaned),
                lfs_count > 0 ? write_cost / lfs_count : 0.0);
    if (json.enabled()) {
      char line[256];
      std::snprintf(line, sizeof(line),
                    "{\"bench\":\"ablation_cleaner\",\"cleaner\":\"%s\",\"scale\":%.3f,"
                    "\"mean_ms\":%.4f,\"p95_ms\":%.4f,\"segments_cleaned\":%llu,"
                    "\"write_cost\":%.4f}",
                    cleaner, scale, replayer.overall().mean().ToMillisF(),
                    replayer.overall().Percentile(0.95).ToMillisF(),
                    static_cast<unsigned long long>(cleaned),
                    lfs_count > 0 ? write_cost / lfs_count : 0.0);
      json.Append(line);
    }
  }
  std::printf("# expected: cost-benefit sustains a lower long-run write cost by\n");
  std::printf("# preferring cold segments (Rosenblum & Ousterhout).\n");
  return 0;
}
