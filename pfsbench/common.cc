#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench.h"

namespace pfsbench {

void AddLatencyMetrics(const CallLog& log, Report* report) {
  for (size_t c = 0; c < kOpClasses; ++c) {
    const LogLinearHistogram& h = log.latency[c];
    if (h.count() == 0) {
      continue;
    }
    const std::string name = OpClassName(static_cast<OpClass>(c));
    report->Add(name + "_mean_us", h.mean_ns() / 1e3, "us", "n=" + std::to_string(h.count()));
    report->Add(name + "_p50_us", h.PercentileNs(0.5) / 1e3, "us",
                "n=" + std::to_string(h.count()));
    report->Add(name + "_p99_us", h.PercentileNs(0.99) / 1e3, "us",
                "n=" + std::to_string(h.count()) + ", " + std::to_string(h.CountAbove(0.99)) +
                    " beyond");
  }
}

void AddSlicedMetrics(const std::vector<CallLog>& slices, const std::vector<double>& wall_s,
                      Report* report) {
  std::vector<double> rates;
  uint64_t calls = 0;
  for (size_t i = 0; i < slices.size(); ++i) {
    rates.push_back(Ratio(static_cast<double>(slices[i].calls), wall_s[i]));
    calls += slices[i].calls;
  }
  const auto [low, high] = std::minmax_element(rates.begin(), rates.end());
  char note[160];
  std::snprintf(note, sizeof(note), "median of %zu slices (%.0f..%.0f), %llu calls",
                slices.size(), *low, *high, static_cast<unsigned long long>(calls));
  report->Add("ops_per_s", Median(rates), "1/s", note);
  for (size_t c = 0; c < kOpClasses; ++c) {
    std::vector<double> means;
    std::vector<double> p50s;
    std::vector<double> p99s;
    uint64_t n = 0;
    uint64_t fewest = UINT64_MAX;
    for (const CallLog& slice : slices) {
      const LogLinearHistogram& h = slice.latency[c];
      if (h.count() == 0) {
        continue;
      }
      means.push_back(h.mean_ns() / 1e3);
      p50s.push_back(h.PercentileNs(0.5) / 1e3);
      p99s.push_back(h.PercentileNs(0.99) / 1e3);
      n += h.count();
      fewest = std::min(fewest, h.CountAbove(0.99));
    }
    if (means.empty()) {
      continue;
    }
    const std::string name = OpClassName(static_cast<OpClass>(c));
    const std::string counts = "n=" + std::to_string(n) + " over " + std::to_string(means.size()) +
                               " slices";
    report->Add(name + "_mean_us", Median(means), "us", counts);
    report->Add(name + "_p50_us", Median(p50s), "us", counts);
    report->Add(name + "_p99_us", Median(p99s), "us",
                counts + ", >= " + std::to_string(fewest) + " beyond p99 per slice");
  }
}

double PeakRssMb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"request\":\"%llu:%llu\"}}\n",
                 i == 0 ? "" : ",", s.name, static_cast<unsigned long long>(s.client),
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.client), static_cast<unsigned long long>(s.seq));
  }
  std::fprintf(f, "],\"displayTimeUnit\":\"ns\"}\n");
  return std::fclose(f) == 0;
}

pfs::Task<> WatchForStall(pfs::System* sys, StallWatch* watch) {
  using WallClock = std::chrono::steady_clock;
  pfs::Scheduler* sched = pfs::Scheduler::Current();
  uint64_t last_progress_count = *watch->progress;
  WallClock::time_point last_progress = WallClock::now();
  for (;;) {
    co_await sched->Sleep(pfs::Duration::Seconds(1));
    if (watch->done) {
      co_return;
    }
    if (watch->clock_limit_ns > 0 && sched->Now().nanos() > watch->clock_limit_ns) {
      watch->reason = "clock limit passed before the phase completed";
    } else if (*watch->progress != last_progress_count) {
      last_progress_count = *watch->progress;
      last_progress = WallClock::now();
      continue;
    } else if (std::chrono::duration<double>(WallClock::now() - last_progress).count() <
               watch->stall_wall_s) {
      continue;
    } else {
      watch->reason = "no client call completed for " + std::to_string(watch->stall_wall_s) +
                      " s of wall time";
    }
    watch->fired = true;
    std::fprintf(stderr, "pfsbench: %s; threads of the stalled shard:\n", watch->reason.c_str());
    sched->DumpThreads();
    sys->RequestStop();
    co_return;
  }
}

}  // namespace pfsbench
