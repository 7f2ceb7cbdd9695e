// pfsbench: the repository's end-to-end and per-layer benchmark.
//
//   pfsbench --workload <hot-read|sharded-front|cold-mix|sprite-replay>
//            [--seed N] [--seconds S] [--traced] [--json FILE] [--work-dir DIR]
//
// Prints every metric as "name value unit" (percentiles with their sample
// counts), writes the result to FILE as JSON when asked, and exits non-zero
// if any correctness check failed. --traced measures the per-layer metrics
// (accessor deltas, probe chain, trace overhead) instead of the end-to-end
// ones and writes the calls' spans to DIR/bench-trace-<workload>.json.
// See README.md for the workloads and metrics.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "pfsbench: %s\nusage: pfsbench --workload <hot-read|sharded-front|cold-mix|"
               "sprite-replay> [--seed N] [--seconds S] [--traced] [--json FILE] "
               "[--work-dir DIR]\n",
               message);
  return 2;
}

bool ParseNumber(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  pfsbench::Options options;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--traced") {
      options.traced = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      const char* text = argv[++i];
      char* end = nullptr;
      options.seed = std::strtoull(text, &end, 10);
      if (end == text || *end != '\0') {
        return Usage("--seed takes a non-negative integer");
      }
    } else if (arg == "--seconds" && has_value) {
      if (!ParseNumber(argv[++i], &options.seconds) || options.seconds <= 0 ||
          options.seconds > 600) {
        return Usage("--seconds takes a number in (0, 600]");
      }
    } else if (arg == "--json" && has_value) {
      json_path = argv[++i];
    } else if (arg == "--work-dir" && has_value) {
      options.work_dir = argv[++i];
    } else {
      return Usage(("unknown or incomplete argument " + arg).c_str());
    }
  }

  pfsbench::Outcome out;
  if (pfsbench::IsFileWorkload(options.workload)) {
    out = pfsbench::RunFileWorkload(options);
  } else if (options.workload == "sprite-replay") {
    out = pfsbench::RunSpriteReplay(options);
  } else {
    return Usage("unknown workload");
  }

  const bool correct = out.problems.empty() && out.failed == 0 && out.attempted > 0;
  if (out.attempted == 0) {
    out.attempted = out.failed = 1;  // the set-up itself failed
  }
  std::printf("# pfsbench workload=%s seed=%llu seconds=%g %s\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.traced ? "per-layer (traced)" : "end-to-end");
  out.report.Print(stdout);
  std::printf("# attempted=%llu failed=%llu correct=%s\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), correct ? "yes" : "NO");
  for (const std::string& problem : out.problems) {
    std::printf("# FAILED CHECK: %s\n", problem.c_str());
  }
  if (options.traced && !out.spans.empty()) {
    const std::string trace = options.work_dir + "/bench-trace-" + options.workload + ".json";
    if (pfsbench::WriteChromeTrace(trace, out.spans)) {
      std::printf("# %zu spans written to %s\n", out.spans.size(), trace.c_str());
    } else {
      std::printf("# could not write %s\n", trace.c_str());
    }
  }
  std::fflush(stdout);

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "pfsbench: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":%s}\n",
                 correct ? "true" : "false", static_cast<unsigned long long>(out.attempted),
                 static_cast<unsigned long long>(out.failed), out.report.MetricsJson().c_str());
    if (std::fclose(f) != 0) {
      return 1;
    }
  }
  return correct ? 0 : 1;
}
