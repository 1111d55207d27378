#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

#include "util/atomic_file.h"
#include "util/thread_id.h"

namespace hisrect::obs {

namespace {

struct ThreadBuffer {
  ThreadBuffer(uint32_t tid, size_t capacity) : tid(tid), events(capacity) {}

  const uint32_t tid;
  std::vector<TraceEvent> events;
  // Single writer (the owning thread); release-store so the exporter's
  // acquire-load observes fully written events below the count.
  std::atomic<size_t> count{0};
  std::atomic<uint64_t> dropped{0};
};

struct RecorderState {
  std::mutex mutex;
  // Leaked on purpose: worker threads may touch their cached buffer pointer
  // during process teardown, after static destructors would have run.
  std::vector<ThreadBuffer*> buffers;
  size_t capacity_per_thread = TraceRecorder::kDefaultCapacityPerThread;
};

std::atomic<bool> g_enabled{false};

RecorderState& State() {
  static RecorderState* state = new RecorderState();
  return *state;
}

ThreadBuffer*& LocalBuffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  return buffer;
}

uint64_t ProcessStartNanos() {
  static const uint64_t start = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  return start;
}

}  // namespace

void TraceRecorder::Start(size_t capacity_per_thread) {
  ProcessStartNanos();  // pin the epoch before any event timestamps
  RecorderState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  state.capacity_per_thread = std::max<size_t>(1, capacity_per_thread);
  for (ThreadBuffer* buffer : state.buffers) {
    buffer->count.store(0, std::memory_order_relaxed);
    buffer->dropped.store(0, std::memory_order_relaxed);
    buffer->events.assign(state.capacity_per_thread, TraceEvent{});
  }
  g_enabled.store(true, std::memory_order_release);
}

void TraceRecorder::Stop() { g_enabled.store(false, std::memory_order_release); }

bool TraceRecorder::enabled() {
  return g_enabled.load(std::memory_order_relaxed);
}

uint64_t TraceRecorder::NowNanos() {
  // Read the epoch first: on the process's first call it is initialized
  // here, and a `now` sampled before it would be earlier and wrap.
  const uint64_t start = ProcessStartNanos();
  const uint64_t now = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  return now - start;
}

void TraceRecorder::Record(const char* name, uint64_t begin_ns,
                           uint64_t end_ns) {
  if (!enabled()) return;
  ThreadBuffer*& local = LocalBuffer();
  if (local == nullptr) {
    RecorderState& state = State();
    std::lock_guard<std::mutex> lock(state.mutex);
    local = new ThreadBuffer(util::ThisThreadIndex(),
                             state.capacity_per_thread);
    state.buffers.push_back(local);
  }
  const size_t index = local->count.load(std::memory_order_relaxed);
  if (index >= local->events.size()) {
    local->dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  TraceEvent& event = local->events[index];
  event.name = name;
  event.begin_ns = begin_ns;
  event.end_ns = end_ns;
  event.tid = local->tid;
  local->count.store(index + 1, std::memory_order_release);
}

size_t TraceRecorder::EventCount() {
  RecorderState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  size_t total = 0;
  for (const ThreadBuffer* buffer : state.buffers) {
    total += buffer->count.load(std::memory_order_acquire);
  }
  return total;
}

uint64_t TraceRecorder::DroppedEvents() {
  RecorderState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  uint64_t total = 0;
  for (const ThreadBuffer* buffer : state.buffers) {
    total += buffer->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

util::Status TraceRecorder::WriteChromeTrace(const std::string& path) {
  std::vector<TraceEvent> events;
  uint64_t dropped = 0;
  {
    RecorderState& state = State();
    std::lock_guard<std::mutex> lock(state.mutex);
    for (const ThreadBuffer* buffer : state.buffers) {
      const size_t count = buffer->count.load(std::memory_order_acquire);
      events.insert(events.end(), buffer->events.begin(),
                    buffer->events.begin() + static_cast<ptrdiff_t>(count));
      dropped += buffer->dropped.load(std::memory_order_relaxed);
    }
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.begin_ns != b.begin_ns) return a.begin_ns < b.begin_ns;
              if (a.tid != b.tid) return a.tid < b.tid;
              return a.end_ns < b.end_ns;
            });

  std::string out = "{\"traceEvents\": [\n";
  char buffer[256];
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& event = events[i];
    const double ts_us = static_cast<double>(event.begin_ns) / 1000.0;
    const double dur_us =
        static_cast<double>(event.end_ns >= event.begin_ns
                                ? event.end_ns - event.begin_ns
                                : 0) /
        1000.0;
    std::snprintf(buffer, sizeof(buffer),
                  "{\"name\": \"%s\", \"cat\": \"hisrect\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u}",
                  event.name, ts_us, dur_us, event.tid);
    out += buffer;
    if (i + 1 < events.size()) out += ",";
    out += "\n";
  }
  std::snprintf(buffer, sizeof(buffer),
                "], \"displayTimeUnit\": \"ms\", "
                "\"metadata\": {\"dropped_events\": %llu}}\n",
                static_cast<unsigned long long>(dropped));
  out += buffer;

  util::AtomicFileWriter writer(path);
  writer.Append(out);
  return writer.Commit();
}

}  // namespace hisrect::obs
