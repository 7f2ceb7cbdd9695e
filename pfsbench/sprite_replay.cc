// sprite-replay: the paper's own use of the framework. Patsy (virtual clock,
// the Allspice topology of §5.1: 3 SCSI busses, 10 HP 97560 disks, 14 LFS
// file systems, 48 MiB cache; UPS flushing) replays a Sprite-like trace
// (SpriteLike("1a"), 4 clients) to completion, honouring record timing.
//
// The replay's wall time is the framework's own cost — coroutines, timer
// wheel, disk and bus models — so calls replayed per wall second is the
// simulator's speed. Its client latencies are simulated time and
// deterministic for a seed.
//
// A run replays a fixed set of kPooledTraces traces drawn from the seed, and
// pools their latencies: one short trace's tail depends too much on which
// files its seed happened to make large. It then replays trace 0 again, whose
// digest must match the first replay's, and keeps replaying further traces
// until its time is up; calls per wall second is the median over all of
// them.
#include <chrono>
#include <memory>

#include "bench.h"
#include "layers.h"
#include "probes.h"
#include "trace/replayer.h"
#include "workload/generator.h"

namespace pfsbench {
namespace {

using WallClock = std::chrono::steady_clock;

// 240 s x 8 = 1920 s of trace, ~150k records: about a second of wall time.
constexpr double kScale = 8;
constexpr uint32_t kTraceClients = 4;
constexpr int kPooledTraces = 6;
// How far past the trace's end the simulated server may run before the
// replay counts as stalled.
constexpr pfs::Duration kMaxBacklog = pfs::Duration::Seconds(300);

struct Replay {
  double setup_s = 0;
  double wall_s = 0;
  uint64_t records = 0;
  uint64_t finished = 0;  // records the replayer completed or failed
  uint64_t errors = 0;
  double trace_s = 0;   // the trace's nominal duration
  double replay_s = 0;  // simulated time from start to completion
  uint64_t digest = 0;
  std::string problem;
  LayerSnapshot before;
  LayerSnapshot after;
  // Everything the replay's coroutines reference; the system is declared
  // last so it (and every suspended frame) is destroyed first.
  std::unique_ptr<CallLog> log = std::make_unique<CallLog>();
  std::unique_ptr<SpanLog> spans = std::make_unique<SpanLog>();
  std::unique_ptr<TimedClient> client;
  std::unique_ptr<pfs::TraceReplayer> replayer;
  std::unique_ptr<StallWatch> watch = std::make_unique<StallWatch>();
  std::unique_ptr<pfs::System> sys;
};

uint64_t Mix(uint64_t h, uint64_t v) { return (h ^ v) * 0x100000001b3ull; }

// Trace `index` of a run: its own generator seed, derived from the run's.
uint64_t TraceSeed(const Options& options, int index) {
  return Mix(Mix(0xcbf29ce484222325ull, options.seed), static_cast<uint64_t>(index));
}

std::unique_ptr<Replay> ReplayOnce(const Options& options, int index, double scale, bool traced) {
  auto r = std::make_unique<Replay>();
  const auto begin = WallClock::now();
  pfs::WorkloadParams params = pfs::WorkloadParams::SpriteLike("1a", scale);
  params.clients = kTraceClients;
  params.seed = TraceSeed(options, index);
  std::vector<pfs::TraceRecord> records = pfs::GenerateWorkload(params);
  r->records = records.size();
  r->trace_s = params.duration.ToSecondsF();

  pfs::SystemConfig config = pfs::SystemConfig::AllspiceSim();
  config.flush_policy = "ups";
  config.seed = options.seed;
  auto built = pfs::SystemBuilder::Build(config);
  if (!built.ok()) {
    r->problem = "build: " + built.status().ToString();
    return r;
  }
  r->sys = std::move(built).value();
  const pfs::Status setup = r->sys->Setup();
  if (!setup.ok()) {
    r->problem = "setup: " + setup.ToString();
    return r;
  }
  pfs::Scheduler* sched = r->sys->scheduler();
  r->client = std::make_unique<TimedClient>(r->sys->client(), r->log.get(), r->spans.get());
  r->replayer = std::make_unique<pfs::TraceReplayer>(sched, r->client.get());
  r->replayer->AddRecords(std::move(records));
  r->setup_s = std::chrono::duration<double>(WallClock::now() - begin).count();

  if (traced) {
    r->spans->tracing = true;
    r->spans->limit = kSpanLimit;
  }
  r->before = TakeSnapshot(*r->sys);
  const pfs::TimePoint start = sched->Now();
  r->watch->progress = &r->log->calls;
  r->watch->clock_limit_ns = (start + params.duration + kMaxBacklog).nanos();
  r->replayer->Start();
  sched->SpawnDaemon("pfsbench.watch", WatchForStall(r->sys.get(), r->watch.get()));
  const auto replay_begin = WallClock::now();
  r->sys->RunToCompletion();
  r->wall_s = std::chrono::duration<double>(WallClock::now() - replay_begin).count();
  r->watch->done = true;
  r->spans->tracing = false;
  r->after = TakeSnapshot(*r->sys);
  r->replay_s = (sched->Now() - start).ToSecondsF();
  r->errors = r->replayer->errors();
  r->finished = r->replayer->ops_completed() + r->errors;
  if (r->watch->fired) {
    r->problem = "stalled: " + r->watch->reason;
  } else if (r->finished != r->records) {
    r->problem = std::to_string(r->records - r->finished) + " trace records never replayed";
  } else if (r->errors != 0) {
    r->problem = std::to_string(r->errors) + " replayed records failed (first: " +
                 r->log->first_error + ")";
  }

  uint64_t h = 0xcbf29ce484222325ull;
  for (const LogLinearHistogram& hist : r->log->latency) {
    h = Mix(h, hist.Digest());
  }
  h = Mix(h, r->log->calls);
  h = Mix(h, r->finished);
  h = Mix(h, static_cast<uint64_t>((sched->Now() - start).nanos()));
  h = Mix(h, r->after.cache_hits);
  h = Mix(h, r->after.cache_misses);
  h = Mix(h, r->after.cache_flushed);
  h = Mix(h, r->after.log_blocks);
  h = Mix(h, r->after.disk_requests);
  r->digest = h;
  return r;
}

double CallsPerSecond(const Replay& r) {
  return Ratio(static_cast<double>(r.log->calls), r.wall_s);
}

// Failures are the records the replayer could not replay. A failed call is
// not one by itself: the replayer opens a file the trace never created,
// gets kNotFound, and creates it (the paper's missing-state synthesis).
void Account(const Replay& r, Outcome* out) {
  out->attempted += r.log->calls + (r.records - r.finished);
  out->failed += r.errors + (r.records - r.finished);
  if (!r.problem.empty()) {
    out->problems.push_back(r.problem);
  }
}

}  // namespace

Outcome RunSpriteReplay(const Options& options) {
  Outcome out;
  if (options.traced) {
    // A quarter-length trace, replayed untraced and then traced.
    std::unique_ptr<Replay> plain = ReplayOnce(options, 0, kScale / 4, false);
    plain->sys.reset();
    Account(*plain, &out);
    const std::unique_ptr<Replay> traced = ReplayOnce(options, 0, kScale / 4, true);
    Account(*traced, &out);
    if (!out.problems.empty()) {
      return out;
    }
    const CallLog& log = *traced->log;
    const PhaseWork work{log.calls, log.count(OpClass::kWrite), log.write_bytes, traced->wall_s};
    AddLayerMetrics(traced->before, traced->after, work, &out.report);
    out.report.Add("obs.trace_overhead", Ratio(CallsPerSecond(*plain), CallsPerSecond(*traced)),
                   "ratio", "untraced / traced calls per wall second");
    out.report.Add("replay.backlog", Ratio(traced->replay_s, traced->trace_s), "ratio",
                   "simulated time to finish / trace duration");
    out.report.Add("replay.unfinished", static_cast<double>(traced->records - traced->finished),
                   "count");
    out.report.Add("obs.spans_dropped", static_cast<double>(traced->spans->dropped), "count");
    const ProbeChain probes = RunProbeChain(*traced->sys, "", traced->spans.get());
    if (!probes.problem.empty()) {
      out.problems.push_back("probe: " + probes.problem);
    }
    AddProbeMetrics(probes, &out.report);
    std::printf("# probe p50 on the simulated clock (us): ");
    for (const ProbeResult& tier : probes.tiers) {
      std::printf("%s=%.3f ", tier.name.c_str(), tier.clock_us);
    }
    std::printf("\n");
    out.spans = std::move(traced->spans->spans);
    out.report.Add("peak_rss_mb", PeakRssMb(), "MiB");
    return out;
  }

  CallLog pooled;
  std::vector<double> setup_s;
  std::vector<double> calls_per_s;
  std::vector<double> sim_speed;
  double backlog = 0;
  double peak_rss_mb = 0;
  uint64_t first_digest = 0;
  const auto begin = WallClock::now();
  for (int i = 0; i <= kPooledTraces ||
                  std::chrono::duration<double>(WallClock::now() - begin).count() < options.seconds;
       ++i) {
    // Replay kPooledTraces repeats trace 0; later ones draw new traces.
    const int index = i < kPooledTraces ? i : (i == kPooledTraces ? 0 : i - 1);
    std::unique_ptr<Replay> r = ReplayOnce(options, index, kScale, false);
    r->sys.reset();  // free the simulated server before the next replay
    r->replayer.reset();
    Account(*r, &out);
    std::printf("# replay %d (trace %d): %llu records, %llu calls, setup %.3f s, replay %.3f s "
                "wall, %.1f s simulated, digest %016llx\n",
                i, index, static_cast<unsigned long long>(r->records),
                static_cast<unsigned long long>(r->log->calls), r->setup_s, r->wall_s,
                r->replay_s, static_cast<unsigned long long>(r->digest));
    if (!r->problem.empty()) {
      return out;
    }
    setup_s.push_back(r->setup_s);
    calls_per_s.push_back(CallsPerSecond(*r));
    sim_speed.push_back(Ratio(r->replay_s, r->wall_s));
    if (i < kPooledTraces) {
      pooled.Merge(*r->log);
      backlog = std::max(backlog, Ratio(r->replay_s, r->trace_s));
    }
    if (i == 0) {
      // Later replays only add allocator fragmentation to the peak.
      first_digest = r->digest;
      peak_rss_mb = PeakRssMb();
    } else if (i == kPooledTraces && r->digest != first_digest) {
      out.problems.push_back("two replays of one trace disagree: the simulation is not "
                             "deterministic");
    }
  }
  out.report.Add("ops_per_s", Median(calls_per_s), "1/s",
                 "median of " + std::to_string(calls_per_s.size()) + " replays");
  AddLatencyMetrics(pooled, &out.report);
  out.report.Add("setup_s", Median(setup_s), "s",
                 "trace generation, build, format and AddRecords; median of " +
                     std::to_string(setup_s.size()));
  out.report.Add("sim_speed", Median(sim_speed), "s/s", "simulated seconds per wall second");
  out.report.Add("replay.backlog", backlog, "ratio", "worst of the pooled traces");
  out.report.Add("peak_rss_mb", peak_rss_mb, "MiB", "after the first replay");
  return out;
}

}  // namespace pfsbench
