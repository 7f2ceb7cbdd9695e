// Shared harness for the figure-reproduction benches: runs one Sprite-like
// trace under the four §5.1 flush policies on the Allspice topology and
// prints the series the paper plots.
#ifndef PFS_BENCH_BENCH_UTIL_H_
#define PFS_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "patsy/patsy.h"
#include "workload/generator.h"

namespace pfs::bench {

// --json on a bench binary's command line: in addition to the text report,
// append one JSON object per result line to BENCH_<name>.json in the current
// directory — a machine-readable run trail (StatsRegistry::ReportJson
// provides the component stats in the same format), no text scraping.
class JsonSink {
 public:
  JsonSink(const char* bench, int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      if (std::string_view(argv[i]) == "--json") {
        path_ = std::string("BENCH_") + bench + ".json";
        break;
      }
    }
  }

  bool enabled() const { return !path_.empty(); }

  void Append(const std::string& json_object) {
    if (path_.empty()) {
      return;
    }
    std::FILE* f = std::fopen(path_.c_str(), "a");
    if (f == nullptr) {
      return;
    }
    std::fprintf(f, "%s\n", json_object.c_str());
    std::fclose(f);
  }

 private:
  std::string path_;
};

// --config <file> on a bench binary's command line: replace the default
// Allspice base scenario with a parsed scenario file, so any textual
// composition (other topologies, volumes, layouts) runs under the same
// figure harness. A broken scenario file is fatal — a bench silently
// falling back to the default would report the wrong system's numbers.
inline SystemConfig BaseScenario(int argc, char** argv) {
  auto args = ParseScenarioArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "%s\n", args.status().ToString().c_str());
    std::exit(2);
  }
  if (args->scenario.has_value()) {
    return *std::move(args->scenario);
  }
  return SystemConfig::AllspiceSim();
}

// BENCH_SCALE scales trace duration (1.0 default); the curves' shape is
// stable across scales.
inline double GetScale() {
  const char* env = std::getenv("BENCH_SCALE");
  if (env == nullptr) {
    return 1.0;
  }
  const double v = std::atof(env);
  return v > 0 ? v : 1.0;
}

// Default trace scale for the figure benches: large enough for stable
// curves, small enough that the full sweep finishes in minutes.
inline double DefaultScale() { return GetScale() * 0.5; }

struct PolicyRun {
  std::string label;
  std::string policy;
};

inline std::vector<PolicyRun> PaperPolicies() {
  return {
      {"write-delay-30s", "write-delay"},
      {"nvram-partial-file", "nvram-partial"},
      {"nvram-whole-file", "nvram-whole"},
      {"ups", "ups"},
  };
}

inline PatsyConfig PaperConfig(const std::string& flush_policy) {
  PatsyConfig config = SystemConfig::AllspiceSim();  // 3 busses, 10 disks, 14 LFS
  config.flush_policy = flush_policy;
  return config;
}

inline Result<SimulationResult> RunPolicy(const std::string& trace_name,
                                          const std::string& policy, double scale,
                                          SystemConfig base = SystemConfig::AllspiceSim()) {
  WorkloadParams params = WorkloadParams::SpriteLike(trace_name, scale);
  SimulationOptions options;
  // Bound the run: a saturated configuration (cache permanently all-dirty)
  // must still terminate and report the latencies it measured.
  options.max_simulated_time = params.duration + Duration::Minutes(2);
  base.flush_policy = policy;
  return RunTraceSimulation(base, GenerateWorkload(params), options);
}

// Prints one figure: the cumulative latency distribution for each policy on
// one trace (the series of the paper's Figures 2-4), plus the mean-latency
// markers the paper draws as horizontal bars. With --json, each policy's
// summary numbers are appended to BENCH_<json_tag>.json.
inline int RunCdfFigure(const char* figure, const char* trace_name, int argc = 0,
                        char** argv = nullptr, const char* json_tag = "cdf_figure") {
  JsonSink json(json_tag, argc, argv);
  const SystemConfig base = BaseScenario(argc, argv);
  const double scale = DefaultScale();
  std::printf("# %s: cumulative distribution of file-system latencies, trace %s\n", figure,
              trace_name);
  std::printf("# (Patsy, %d disk(s), %d file system(s), %s layout; scale=%.2f)\n",
              [&] {
                int total = 0;
                for (int n : base.disks_per_bus) total += n;
                return total;
              }(),
              base.num_filesystems, base.layout.c_str(), scale);
  for (const PolicyRun& run : PaperPolicies()) {
    auto result = RunPolicy(trace_name, run.policy, scale, base);
    if (!result.ok()) {
      std::printf("ERROR %s: %s\n", run.label.c_str(), result.status().ToString().c_str());
      return 1;
    }
    std::printf("\n## policy=%s ops=%llu mean=%.3fms p50=%.3fms p95=%.3fms\n",
                run.label.c_str(), static_cast<unsigned long long>(result->ops),
                result->overall.mean().ToMillisF(),
                result->overall.Percentile(0.5).ToMillisF(),
                result->overall.Percentile(0.95).ToMillisF());
    std::printf("# latency_ms cumulative_fraction\n");
    for (const auto& point : result->overall.Cdf()) {
      std::printf("%.4f %.5f\n", point.millis, point.fraction);
    }
    std::printf("# landmarks: <=2ms(cache)=%.3f  <=17ms(one rotation)=%.3f\n",
                result->overall.FractionBelow(Duration::Millis(2)),
                result->overall.FractionBelow(Duration::Millis(17)));
    if (json.enabled()) {
      char line[384];
      std::snprintf(line, sizeof(line),
                    "{\"figure\":\"%s\",\"trace\":\"%s\",\"policy\":\"%s\",\"scale\":%.3f,"
                    "\"ops\":%llu,\"mean_ms\":%.4f,\"p50_ms\":%.4f,\"p95_ms\":%.4f}",
                    json_tag, trace_name, run.label.c_str(), scale,
                    static_cast<unsigned long long>(result->ops),
                    result->overall.mean().ToMillisF(),
                    result->overall.Percentile(0.5).ToMillisF(),
                    result->overall.Percentile(0.95).ToMillisF());
      json.Append(line);
    }
  }
  return 0;
}

}  // namespace pfs::bench

#endif  // PFS_BENCH_BENCH_UTIL_H_
