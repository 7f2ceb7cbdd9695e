#include "obs/trace.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace pfs {

const char* TraceStageName(TraceStage stage) {
  switch (stage) {
    case TraceStage::kClient:
      return "client.op";
    case TraceStage::kCacheFill:
      return "cache.fill";
    case TraceStage::kVolume:
      return "volume.request";
    case TraceStage::kFragment:
      return "volume.fragment";
    case TraceStage::kDriverQueue:
      return "driver.queue";
    case TraceStage::kDriverIo:
      return "driver.io";
    case TraceStage::kDriverBatch:
      return "driver.batch";
  }
  return "unknown";
}

namespace {
// Process-unique recorder ids key the thread-local buffer cache: a stale
// cache entry can never be revived by a new recorder allocated at the same
// address.
std::atomic<uint64_t> g_next_recorder_instance{1};
}  // namespace

TraceRecorder::TraceRecorder()
    : instance_id_(g_next_recorder_instance.fetch_add(1, std::memory_order_relaxed)) {}

TraceRecorder::Buffer* TraceRecorder::LocalBuffer() {
  struct Cache {
    uint64_t instance = 0;
    Buffer* buffer = nullptr;
  };
  thread_local Cache cache;
  if (cache.instance != instance_id_) {
    std::lock_guard<std::mutex> lock(buffers_mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    cache = Cache{instance_id_, buffers_.back().get()};
  }
  return cache.buffer;
}

void TraceRecorder::Record(const TraceSpan& span) {
  Buffer* buffer = LocalBuffer();
  std::lock_guard<std::mutex> lock(buffer->mu);
  buffer->spans.push_back(span);
}

std::vector<TraceSpan> TraceRecorder::Spans() const {
  std::vector<TraceSpan> out;
  std::lock_guard<std::mutex> buffers_lock(buffers_mu_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> lock(buffer->mu);
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return out;
}

std::string TraceRecorder::ChromeTraceJson() const {
  const std::vector<TraceSpan> spans = Spans();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[256];
  for (size_t i = 0; i < spans.size(); ++i) {
    const TraceSpan& span = spans[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"pfs\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"pid\":1,\"tid\":%llu,\"args\":{\"trace_id\":%llu,\"arg\":%llu}}",
                  i == 0 ? "" : ",", TraceStageName(span.stage),
                  static_cast<double>(span.begin_ns) / 1000.0,
                  static_cast<double>(span.end_ns - span.begin_ns) / 1000.0,
                  static_cast<unsigned long long>(span.tid),
                  static_cast<unsigned long long>(span.trace_id),
                  static_cast<unsigned long long>(span.arg));
    out += buf;
  }
  out += "]}";
  return out;
}

Status TraceRecorder::WriteChromeTrace(const std::string& path) const {
  const std::string json = ChromeTraceJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status(ErrorCode::kIoError, "open " + path + ": " + std::strerror(errno));
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const int close_rc = std::fclose(f);
  if (written != json.size() || close_rc != 0) {
    return Status(ErrorCode::kIoError, "write " + path);
  }
  return OkStatus();
}

std::string TraceSamplesPath(const std::string& trace_file) {
  const std::string suffix = ".json";
  if (trace_file.size() > suffix.size() &&
      trace_file.compare(trace_file.size() - suffix.size(), suffix.size(), suffix) == 0) {
    return trace_file.substr(0, trace_file.size() - suffix.size()) + "-samples.json";
  }
  return trace_file + "-samples.json";
}

}  // namespace pfs
