// Request tracing and latency attribution (obs/).
//
// Every client-level operation gets a trace id (TraceContext) that rides the
// calling thread — `Scheduler::SpawnImpl` copies it onto spawned threads, so
// volume fan-out fragments inherit the identity of the request that spawned
// them — and on each IoRequest handed to a driver. Instrumented stages record
// completed spans (enter/exit timestamps on whichever clock the system runs
// on) into a TraceRecorder, which keeps every span and writes them out as a
// Chrome `trace_event` JSON export (open in chrome://tracing or Perfetto).
// Recording starts no scheduler thread, so a traced simulation is the same
// run as the untraced one. Stage latencies live in the metric registry
// (client_op_seconds, cache_fill_seconds, volume_request_seconds,
// volume_fragment_seconds, disk_queue_wait_seconds), not here.
//
// Overhead when tracing is off: one branch per stage (the thread's context
// has a null recorder), nothing else.
#ifndef PFS_OBS_TRACE_H_
#define PFS_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/status.h"
#include "obs/trace_context.h"
#include "sched/time.h"

namespace pfs {

// One row per instrumented stage. Stage names are the Chrome-trace event
// names; tools/trace_check.py rejects a file containing any other name.
enum class TraceStage : uint8_t {
  kClient = 0,   // client.op: one root span per client operation
  kCacheFill,    // cache.fill: miss fill from the layout tier
  kVolume,       // volume.request: one logical request at a volume
  kFragment,     // volume.fragment: one member-local piece of a fan-out
  kDriverQueue,  // driver.queue: enqueue -> batch dispatch (queue wait)
  kDriverIo,     // driver.io: dispatch -> completion (service time)
  kDriverBatch,  // driver.batch: one batched device dispatch
};
inline constexpr size_t kTraceStageCount = 7;
const char* TraceStageName(TraceStage stage);

struct TraceSpan {
  uint64_t trace_id = 0;
  uint64_t tid = 0;  // scheduler Thread id: the chrome-trace row
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
  uint64_t arg = 0;  // stage-specific size (bytes, sectors, batch size)
  TraceStage stage = TraceStage::kClient;
};

// Owns every recorded span. Each OS thread that records appends to its own
// growable buffer behind an uncontended mutex (file-backed completions
// re-enter the scheduler via Post(), so in practice every span is recorded
// on a scheduler's OS thread). Nothing is overwritten or dropped: a buffer
// lives, and grows, as long as the recorder.
class TraceRecorder {
 public:
  TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  // A fresh trace id bound to this recorder; call at the root of an
  // operation and place the result on the current thread.
  TraceContext StartTrace() {
    return TraceContext{this, next_id_.fetch_add(1, std::memory_order_relaxed)};
  }

  void Record(const TraceSpan& span);

  // A copy of every span: buffer by buffer in the order the OS threads
  // first recorded, each buffer in record order.
  std::vector<TraceSpan> Spans() const;
  size_t span_count() const { return Spans().size(); }

  // The Chrome trace_event document: one complete ("X") event per span, in
  // Spans() order.
  std::string ChromeTraceJson() const;
  Status WriteChromeTrace(const std::string& path) const;

 private:
  struct Buffer {
    std::mutex mu;
    std::vector<TraceSpan> spans;
  };

  Buffer* LocalBuffer();

  uint64_t instance_id_;  // process-unique: keys the thread-local buffer cache
  std::atomic<uint64_t> next_id_{1};

  mutable std::mutex buffers_mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

// Records a completed span against `ctx`. Callers check `ctx.active()` first
// — that check is the entire disabled-path cost.
inline void RecordSpan(const TraceContext& ctx, TraceStage stage, uint64_t tid, TimePoint begin,
                       TimePoint end, uint64_t arg) {
  ctx.recorder->Record(TraceSpan{ctx.id, tid, begin.nanos(), end.nanos(), arg, stage});
}

// "trace.json" -> "trace-samples.json": where the StatsSampler time series
// lands next to a chrome-trace export.
std::string TraceSamplesPath(const std::string& trace_file);

}  // namespace pfs

#endif  // PFS_OBS_TRACE_H_
