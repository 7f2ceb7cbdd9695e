// Overhead of serving the live metrics plane on the hottest path we have:
// cache-hit 4 KiB reads through a two-shard file-backed system, measured with
// metrics.enabled off, on but unscraped, and on while an external thread
// scrapes /metrics at 10 Hz. Every mode counts: the registry is the only
// place events are recorded, so even "off" pays the handful of relaxed
// single-writer stores per op (client op counter + cache hit counter) and the
// 1-in-64 sampled clock read for the latency histogram — unsampled, two
// ~30 ns real-clock reads would dominate a ~350 ns cache-hit read. What
// metrics.enabled adds is the HTTP listener and the stats sampler, which
// gathers every shard's ReportJson twice a second for /statz; the claim
// gated in the baseline is that these cost <= 2% of the "off" IOPS.
// Scraping sums the per-shard cells from a foreign thread and must not
// disturb the writers beyond cache traffic.
//
// Each mode runs kRepeats times and reports the best run: the quantity under
// test is the added per-op work, not host scheduling noise, so the minimum
// interference run is the honest comparison. The repeats run in rounds of
// off, on and scraped, so a drift in the host's speed over the bench reaches
// every mode alike instead of favouring whichever mode ran last.
//
// --json appends one line per mode to BENCH_metrics_overhead.json including
// the ratio to the disabled baseline and the scrape count served.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "system/system_builder.h"

using namespace pfs;

namespace {

constexpr int kFilesystems = 2;
constexpr int kShards = 2;
constexpr int kWorkersPerFs = 4;
constexpr int kRepeats = 3;
constexpr uint64_t kFileBytes = 1 * kMiB;  // per worker; well inside the cache
constexpr uint64_t kReadBytes = 4 * kKiB;

struct PointResult {
  double iops = 0;
  double seconds = 0;
  uint64_t scrapes = 0;
  std::string client_json;  // "{"latency_ms":{...}}" of the read ops
};

Task<> Worker(System* sys, int fs, int worker, int ops, Status* out) {
  OpenOptions create;
  create.create = true;
  ClientInterface* c = sys->client();
  const std::string path =
      "/fs" + std::to_string(fs) + "/w" + std::to_string(worker);
  auto fd = co_await c->Open(path, create);
  if (!fd.ok()) {
    *out = fd.status();
    co_return;
  }
  auto wrote = co_await c->Write(*fd, 0, kFileBytes, {});
  if (!wrote.ok()) {
    *out = wrote.status();
    co_return;
  }
  const uint64_t slots = kFileBytes / kReadBytes;
  uint64_t state = static_cast<uint64_t>(fs * 64 + worker + 1) * 0x9E3779B97F4A7C15ull + 1;
  for (int i = 0; i < ops; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const uint64_t offset = (state >> 16) % slots * kReadBytes;
    auto read = co_await c->Read(*fd, offset, kReadBytes, {});
    if (!read.ok()) {
      *out = read.status();
      co_return;
    }
  }
  *out = co_await c->Close(*fd);
}

// One blocking GET against the loopback scrape port; returns false on any
// socket error (the bench only counts successful scrapes).
bool ScrapeOnce(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }
  const char req[] = "GET /metrics HTTP/1.0\r\n\r\n";
  (void)!::write(fd, req, sizeof(req) - 1);
  char buf[4096];
  while (::read(fd, buf, sizeof(buf)) > 0) {
  }
  ::close(fd);
  return true;
}

Result<PointResult> RunPoint(bool metrics_on, bool scrape, int ops_per_fs,
                             const SystemConfig& base) {
  SystemConfig config = base;
  config.backend = BackendKind::kFileBacked;
  config.image_path =
      "/tmp/pfs_metrics_overhead_" + std::to_string(::getpid()) + ".img";
  config.image_bytes = 16 * kMiB;  // per disk
  config.disks_per_bus = {2, 2};
  config.num_filesystems = kFilesystems;
  config.shards = kShards;  // fs f rides shard f % shards (the default pin)
  config.volumes.clear();
  config.fs_shards.clear();
  config.cache_bytes = 8 * kMiB;  // per shard: holds every file it owns
  config.metrics.enabled = metrics_on;
  config.metrics.port = 0;  // ephemeral, never collides with parallel runs

  PFS_ASSIGN_OR_RETURN(std::unique_ptr<System> system, SystemBuilder::Build(config));
  PFS_RETURN_IF_ERROR(system->Setup());

  std::vector<Status> results(kFilesystems * kWorkersPerFs, Status(ErrorCode::kAborted));
  for (int fs = 0; fs < kFilesystems; ++fs) {
    for (int w = 0; w < kWorkersPerFs; ++w) {
      const int ops = ops_per_fs / kWorkersPerFs + (w < ops_per_fs % kWorkersPerFs ? 1 : 0);
      system->fs_scheduler(fs)->Spawn(
          "bench.fs" + std::to_string(fs) + ".w" + std::to_string(w),
          Worker(system.get(), fs, w, ops, &results[static_cast<size_t>(fs * kWorkersPerFs + w)]));
    }
  }

  std::atomic<bool> done{false};
  uint64_t scrapes = 0;
  std::thread scraper;
  if (scrape && system->metrics_port() != 0) {
    const uint16_t port = system->metrics_port();
    scraper = std::thread([&done, &scrapes, port] {
      while (!done.load(std::memory_order_relaxed)) {
        if (ScrapeOnce(port)) {
          ++scrapes;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(100));  // 10 Hz
      }
    });
  }
  const auto t0 = std::chrono::steady_clock::now();
  system->RunToCompletion();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  done.store(true, std::memory_order_relaxed);
  if (scraper.joinable()) {
    scraper.join();
  }
  for (const Status& s : results) {
    PFS_RETURN_IF_ERROR(s);
  }
  if (seconds <= 0) {
    return Status(ErrorCode::kAborted, "zero elapsed time");
  }
  PointResult point;
  point.seconds = seconds;
  point.iops = static_cast<double>(ops_per_fs) * kFilesystems / seconds;
  point.scrapes = scrapes;
  // The read-op latency percentiles as the registry reports them — the
  // baseline gates that these fields keep existing.
  point.client_json = "{" +
                      system->metrics()
                          ->Histogram("client_op_seconds", "", "op=\"read\"", 1e-9)
                          ->LatencyMsJsonObject("latency_ms") +
                      "}";
  std::remove(config.image_path.c_str());
  std::remove((config.image_path + ".1").c_str());
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonSink json("metrics_overhead", argc, argv);
  SystemConfig base = bench::BaseScenario(argc, argv);
  const int ops_per_fs = static_cast<int>(400000 * bench::GetScale());
  const unsigned host_cores = std::thread::hardware_concurrency();

  std::printf("# Cache-hit read IOPS with the metrics plane off / on / on+scraped@10Hz\n");
  std::printf("# %d file systems on %d shards, %d reads of %llu bytes per fs, "
              "best of %d, %u host core(s)\n",
              kFilesystems, kShards, ops_per_fs,
              static_cast<unsigned long long>(kReadBytes), kRepeats, host_cores);
  std::printf("%-10s %12s %10s %8s %8s\n", "mode", "IOPS", "seconds", "ratio", "scrapes");

  struct Mode {
    const char* name;
    bool on;
    bool scrape;
  };
  const Mode modes[] = {{"off", false, false}, {"on", true, false}, {"scraped", true, true}};
  constexpr size_t kModes = sizeof(modes) / sizeof(modes[0]);
  PointResult best[kModes];
  for (int r = 0; r < kRepeats; ++r) {
    for (size_t m = 0; m < kModes; ++m) {
      auto point = RunPoint(modes[m].on, modes[m].scrape, ops_per_fs, base);
      if (!point.ok()) {
        std::printf("ERROR mode=%s: %s\n", modes[m].name,
                    point.status().ToString().c_str());
        return 1;
      }
      if (point->iops > best[m].iops) {
        best[m] = std::move(*point);
      }
    }
  }
  const double off_iops = best[0].iops;
  for (size_t m = 0; m < kModes; ++m) {
    const Mode& mode = modes[m];
    const PointResult& point = best[m];
    const double ratio = off_iops > 0 ? point.iops / off_iops : 0;
    std::printf("%-10s %12.0f %10.3f %8.3f %8llu\n", mode.name, point.iops, point.seconds,
                ratio, static_cast<unsigned long long>(point.scrapes));
    if (json.enabled()) {
      char line[768];
      std::snprintf(line, sizeof(line),
                    "{\"bench\":\"metrics_overhead\",\"mode\":\"%s\",\"iops\":%.1f,"
                    "\"seconds\":%.3f,\"ratio\":%.4f,\"scrapes\":%llu,\"host_cores\":%u"
                    "%s%s}",
                    mode.name, point.iops, point.seconds, ratio,
                    static_cast<unsigned long long>(point.scrapes), host_cores,
                    point.client_json.empty() ? "" : ",\"client\":",
                    point.client_json.c_str());
      json.Append(line);
    }
  }
  return 0;
}
