#include "src/obs/trace.h"

#include <cinttypes>
#include <cstdio>
#include <limits>
#include <memory>
#include <set>

#include "src/obs/metrics.h"
#include "src/util/common.h"
#include "src/util/sync.h"
#include "src/util/varint.h"

namespace dseq {
namespace obs {
namespace {

// ---------------------------------------------------------------------------
// Process-global stamps.

// Relaxed throughout: these are monitoring stamps, not synchronization.
// SetEnabled/SetProcessOrdinal happen before the threads/forks that read
// them (program order + fork/thread creation provide the happens-before);
// SetCurrentRound races only with span emission, where an off-by-one round
// stamp on a span straddling the boundary is acceptable by design.
std::atomic<bool> g_enabled{false};
std::atomic<int> g_process_ordinal{-1};
std::atomic<int> g_round{-1};

// ---------------------------------------------------------------------------
// Per-thread span buffers.
//
// Emission is single-producer (the owning thread) and must never block or
// tear under a concurrent flush. Spans live in fixed-size chunks; the
// producer writes the span, then publishes it with a release store of the
// count. A flusher acquires the count and reads only below it — every span
// it sees is fully written. Chunk pointers are published the same way.

struct RawSpan {
  const char* name;
  const char* category;
  int64_t start_ns;
  int64_t dur_ns;
  int process_ordinal;
  int round;
};

constexpr size_t kChunkSpans = 1024;
// 4096 chunks * 1024 spans = 4M spans per thread; beyond that emission
// drops (counted) rather than growing without bound.
constexpr size_t kMaxChunks = 4096;

struct TraceState;
TraceState& State();

class ThreadBuffer {
 public:
  explicit ThreadBuffer(int thread_ordinal) : thread_ordinal_(thread_ordinal) {}

  void Append(const RawSpan& span) {
    // Relaxed self-read: this thread is the only writer of count_.
    size_t idx = count_.load(std::memory_order_relaxed);
    size_t chunk_idx = idx / kChunkSpans;
    if (chunk_idx >= kMaxChunks) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    RawSpan* chunk = chunks_[chunk_idx].load(std::memory_order_relaxed);
    if (chunk == nullptr) {
      // Chunks are owned by the never-destroyed ThreadBuffer; a flusher may
      // hold a pointer into one at any time, so they are never freed.
      owned_chunks_.push_back(std::make_unique<RawSpan[]>(kChunkSpans));
      chunk = owned_chunks_.back().get();
      // Release: a flusher that acquires this pointer must see the
      // allocation complete.
      chunks_[chunk_idx].store(chunk, std::memory_order_release);
    }
    chunk[idx % kChunkSpans] = span;
    // Release-publish: pairs with the flusher's acquire load of count_ so
    // the span written above is visible before it becomes readable.
    count_.store(idx + 1, std::memory_order_release);
  }

  int thread_ordinal() const { return thread_ordinal_; }

  /// Appends every span in [flushed watermark, published count) to `out`
  /// and advances the watermark. Caller holds the registry mutex (the
  /// watermark is flusher-only state).
  void DrainInto(std::vector<TraceEvent>* out, size_t* watermark) const {
    // Acquire pairs with Append's release store: spans below n are
    // fully written.
    size_t n = count_.load(std::memory_order_acquire);
    for (size_t i = *watermark; i < n; ++i) {
      const RawSpan* chunk =
          chunks_[i / kChunkSpans].load(std::memory_order_acquire);
      const RawSpan& s = chunk[i % kChunkSpans];
      TraceEvent ev;
      ev.name = s.name;
      ev.category = s.category;
      ev.start_ns = s.start_ns;
      ev.dur_ns = s.dur_ns;
      ev.process_ordinal = s.process_ordinal;
      ev.thread_ordinal = thread_ordinal_;
      ev.round = s.round;
      out->push_back(std::move(ev));
    }
    *watermark = n;
  }

  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

 private:
  const int thread_ordinal_;
  std::atomic<size_t> count_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<RawSpan*> chunks_[kMaxChunks] = {};
  // The chunks' storage; only the owning thread touches it.
  std::vector<std::unique_ptr<RawSpan[]>> owned_chunks_;
};

struct RegisteredBuffer {
  std::unique_ptr<ThreadBuffer> buffer;
  // How many of the buffer's spans previous flushes already collected.
  size_t flushed = 0;
};

struct TraceState {
  Mutex registry_mu;
  std::vector<RegisteredBuffer> buffers DSEQ_GUARDED_BY(registry_mu);

  Mutex sink_mu;
  // The merged timeline: drained local spans + ingested worker snapshots.
  std::vector<TraceEvent> sink DSEQ_GUARDED_BY(sink_mu);
};

TraceState& State() {
  // Never destroyed: outlives thread exit and static destructors.
  static NoDestructor<TraceState> s;
  return *s;
}

ThreadBuffer& LocalBuffer() {
  thread_local ThreadBuffer* t_buffer = nullptr;
  if (t_buffer == nullptr) {
    TraceState& s = State();
    MutexLock lock(s.registry_mu);
    // The registry owns the buffer, so it outlives the thread for flushing.
    s.buffers.push_back(RegisteredBuffer{
        std::make_unique<ThreadBuffer>(static_cast<int>(s.buffers.size())),
        0});
    t_buffer = s.buffers.back().buffer.get();
  }
  return *t_buffer;
}

// ---------------------------------------------------------------------------
// Wire codec. Payload layout (all varints):
//
//   0x01 version byte
//   num_spans, then per span:
//     category (length-prefixed), name (length-prefixed),
//     start_ns, dur_ns, zigzag(process_ordinal), thread_ordinal,
//     zigzag(round)
//   registry delta block (metrics.h codec)

constexpr char kWireVersion = 0x01;

void AppendLengthPrefixed(std::string* out, std::string_view s) {
  PutVarint(out, s.size());
  out->append(s.data(), s.size());
}

bool GetLengthPrefixed(std::string_view data, size_t* pos, std::string* s) {
  uint64_t len = 0;
  if (!GetVarint(data, pos, &len)) return false;
  if (data.size() - *pos < len) return false;
  s->assign(data.data() + *pos, len);
  *pos += len;
  return true;
}

void AppendJsonEscaped(std::string* out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
}

// Chrome trace timestamps are microseconds; keep nanosecond precision as a
// fractional part.
void AppendMicros(std::string* out, int64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%" PRId64 ".%03" PRId64, ns / 1000,
                ns % 1000);
  out->append(buf);
}

}  // namespace

// ---------------------------------------------------------------------------
// Clock.

std::chrono::steady_clock::time_point Now() {
  // The one sanctioned raw monotonic-clock read (lint: raw-clock-call).
  return std::chrono::steady_clock::now();
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Stamps.

void SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void SetProcessOrdinal(int ordinal) {
  g_process_ordinal.store(ordinal, std::memory_order_relaxed);
}

int ProcessOrdinal() {
  return g_process_ordinal.load(std::memory_order_relaxed);
}

void SetCurrentRound(int round) {
  g_round.store(round, std::memory_order_relaxed);
}

int CurrentRound() { return g_round.load(std::memory_order_relaxed); }

void BeginForkedProcess(int ordinal) {
  SetProcessOrdinal(ordinal);
  // Drop everything inherited from the parent's address space: spans the
  // parent had not yet flushed would otherwise ship again from here.
  TraceState& s = State();
  {
    MutexLock lock(s.registry_mu);
    for (RegisteredBuffer& reg : s.buffers) {
      std::vector<TraceEvent> discard;
      reg.buffer->DrainInto(&discard, &reg.flushed);
    }
  }
  {
    MutexLock lock(s.sink_mu);
    s.sink.clear();
  }
  RebaselineRegistryDeltas();
}

// ---------------------------------------------------------------------------
// Emission and collection.

void EmitSpan(const char* category, const char* name, int64_t start_ns,
              int64_t end_ns) {
  if (!Enabled()) return;
  RawSpan span;
  span.name = name;
  span.category = category;
  span.start_ns = start_ns;
  span.dur_ns = end_ns > start_ns ? end_ns - start_ns : 0;
  span.process_ordinal = ProcessOrdinal();
  span.round = CurrentRound();
  LocalBuffer().Append(span);
}

void FlushThreadBuffers() {
  TraceState& s = State();
  std::vector<TraceEvent> drained;
  {
    MutexLock lock(s.registry_mu);
    for (RegisteredBuffer& reg : s.buffers) {
      reg.buffer->DrainInto(&drained, &reg.flushed);
    }
  }
  if (drained.empty()) return;
  MutexLock lock(s.sink_mu);
  s.sink.insert(s.sink.end(), std::make_move_iterator(drained.begin()),
                std::make_move_iterator(drained.end()));
}

std::vector<TraceEvent> SnapshotTrace() {
  FlushThreadBuffers();
  TraceState& s = State();
  MutexLock lock(s.sink_mu);
  return s.sink;
}

std::vector<TraceEvent> TakeTrace() {
  FlushThreadBuffers();
  TraceState& s = State();
  MutexLock lock(s.sink_mu);
  std::vector<TraceEvent> out = std::move(s.sink);
  s.sink.clear();
  return out;
}

std::string EncodeWireSnapshot() {
  std::vector<TraceEvent> events = TakeTrace();
  std::string out;
  out.push_back(kWireVersion);
  PutVarint(&out, events.size());
  for (const TraceEvent& ev : events) {
    AppendLengthPrefixed(&out, ev.category);
    AppendLengthPrefixed(&out, ev.name);
    PutVarint(&out, static_cast<uint64_t>(ev.start_ns));
    PutVarint(&out, static_cast<uint64_t>(ev.dur_ns));
    PutVarint(&out, ZigzagEncode(ev.process_ordinal));
    PutVarint(&out, static_cast<uint64_t>(ev.thread_ordinal));
    PutVarint(&out, ZigzagEncode(ev.round));
  }
  AppendRegistryDeltas(&out);
  return out;
}

bool IngestWireSnapshot(std::string_view payload,
                        int fallback_process_ordinal) {
  constexpr uint64_t kMaxInt64 = std::numeric_limits<int64_t>::max();
  constexpr uint64_t kMaxInt = std::numeric_limits<int>::max();
  if (payload.empty() || payload[0] != kWireVersion) return false;
  size_t pos = 1;
  uint64_t num_spans = 0;
  if (!GetVarint(payload, &pos, &num_spans)) return false;
  std::vector<TraceEvent> events;
  for (uint64_t i = 0; i < num_spans; ++i) {
    TraceEvent ev;
    uint64_t u = 0;
    if (!GetLengthPrefixed(payload, &pos, &ev.category)) return false;
    if (!GetLengthPrefixed(payload, &pos, &ev.name)) return false;
    // Times and the thread ordinal are written from non-negative values: a
    // larger varint would turn negative here and break the JSON export.
    if (!GetVarint(payload, &pos, &u) || u > kMaxInt64) return false;
    ev.start_ns = static_cast<int64_t>(u);
    if (!GetVarint(payload, &pos, &u) || u > kMaxInt64) return false;
    ev.dur_ns = static_cast<int64_t>(u);
    if (!GetVarint(payload, &pos, &u)) return false;
    ev.process_ordinal = static_cast<int>(ZigzagDecode(u));
    if (ev.process_ordinal < 0) ev.process_ordinal = fallback_process_ordinal;
    if (!GetVarint(payload, &pos, &u) || u > kMaxInt) return false;
    ev.thread_ordinal = static_cast<int>(u);
    if (!GetVarint(payload, &pos, &u)) return false;
    ev.round = static_cast<int>(ZigzagDecode(u));
    events.push_back(std::move(ev));
  }
  if (!IngestRegistryDeltas(payload, &pos)) return false;
  TraceState& s = State();
  MutexLock lock(s.sink_mu);
  s.sink.insert(s.sink.end(), std::make_move_iterator(events.begin()),
                std::make_move_iterator(events.end()));
  return true;
}

std::string ChromeTraceJson() {
  std::vector<TraceEvent> events = SnapshotTrace();
  // pid 0 = coordinator / local process, pid k+1 = proc worker ordinal k.
  // Ordinals arrive in worker snapshots, so any int can occur: the pid is
  // computed in 64 bits, and only ordinals present are kept.
  std::set<int> workers;
  for (const TraceEvent& ev : events) {
    if (ev.process_ordinal >= 0) workers.insert(ev.process_ordinal);
  }
  std::string out = "{\"traceEvents\":[";
  out.append(
      "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"coordinator\"}}");
  for (int k : workers) {
    out.append(",{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":");
    out.append(std::to_string(int64_t{k} + 1));
    out.append(",\"tid\":0,\"args\":{\"name\":\"worker ");
    out.append(std::to_string(k));
    out.append("\"}}");
  }
  for (const TraceEvent& ev : events) {
    out.append(",{\"ph\":\"X\",\"name\":\"");
    AppendJsonEscaped(&out, ev.name);
    out.append("\",\"cat\":\"");
    AppendJsonEscaped(&out, ev.category);
    out.append("\",\"ts\":");
    AppendMicros(&out, ev.start_ns);
    out.append(",\"dur\":");
    AppendMicros(&out, ev.dur_ns);
    out.append(",\"pid\":");
    out.append(std::to_string(
        ev.process_ordinal < 0 ? 0 : int64_t{ev.process_ordinal} + 1));
    out.append(",\"tid\":");
    out.append(std::to_string(ev.thread_ordinal));
    out.append(",\"args\":{\"round\":");
    out.append(std::to_string(ev.round));
    out.append("}}");
  }
  out.append("]}");
  return out;
}

void ResetTraceForTest() {
  TraceState& s = State();
  {
    MutexLock lock(s.registry_mu);
    for (RegisteredBuffer& reg : s.buffers) {
      std::vector<TraceEvent> discard;
      reg.buffer->DrainInto(&discard, &reg.flushed);
    }
  }
  {
    MutexLock lock(s.sink_mu);
    s.sink.clear();
  }
  SetCurrentRound(-1);
  SetProcessOrdinal(-1);
}

}  // namespace obs
}  // namespace dseq
