// Low-overhead tracing: RAII spans over per-thread lock-free buffers,
// merged across processes into one Chrome-trace-event timeline.
//
// The paper's claims are about where time goes — map vs. shuffle vs.
// reduce, skew, spill and RPC overhead — and flat end-of-round counters
// (DataflowMetrics) can't show stragglers or stalls. This layer records
// *spans*: named, categorized [start, end) intervals on the process-wide
// monotonic clock, tagged with the emitting thread's ordinal, the process
// ordinal (coordinator = -1, proc workers = their slot), and the dataflow
// round. A whole run exports as Chrome trace-event JSON
// (`dseq_cli --trace-out FILE`) and opens in Perfetto as one timeline.
//
// Overhead doctrine — a disabled run must cost nothing measurable:
//
//   - DSEQ_TRACE_SPAN compiles to one relaxed load of a process-global
//     flag; when the flag is off the scope object is inert (no clock
//     read, no allocation, no store).
//   - Per-thread buffers allocate lazily, on a thread's first span.
//   - Emission is lock-free: each thread appends to its own chunked
//     buffer and publishes the count with a release store; flushers read
//     the count with an acquire load, so concurrent flush never blocks
//     or tears an emitting thread. Only flush/registry bookkeeping takes
//     a (dseq::Mutex, TSA-annotated) lock.
//
// Clock discipline: this header is the only sanctioned caller of
// std::chrono::steady_clock::now() (lint rule `raw-clock-call`). All
// engine/bench timing goes through obs::Now()/obs::NowNs() so every
// recorded timestamp lives on one alignable clock. CLOCK_MONOTONIC is
// system-wide on Linux, and proc workers are forked from the
// coordinator, so worker and coordinator timestamps are directly
// comparable — cross-process timeline merge needs no clock offset.
#ifndef DSEQ_OBS_TRACE_H_
#define DSEQ_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dseq {
namespace obs {

// ---------------------------------------------------------------------------
// The trace clock.

/// The repo's monotonic clock (the only raw steady_clock::now() call site).
std::chrono::steady_clock::time_point Now();

/// Nanoseconds since the steady-clock epoch (process start, roughly).
/// Monotonic and shared across forked processes.
int64_t NowNs();

/// Seconds elapsed since `start` — the common timing idiom, centralized.
inline double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(Now() -
                                                                   start)
      .count();
}

/// Nanoseconds-since-epoch of an already-taken time point, for emitting
/// retrospective spans whose start was captured as a time_point.
inline int64_t ToNs(std::chrono::steady_clock::time_point tp) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             tp.time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Process-global trace state.

/// Turns span recording and hot-path metric observation on or off.
/// Set it *before* forking proc workers so children inherit it.
void SetEnabled(bool enabled);

/// One relaxed load; the branch every instrumentation site is gated on.
bool Enabled();

/// The emitting process's ordinal: -1 for the coordinator / local runs
/// (default), the worker slot for proc workers (set in WorkerBody).
void SetProcessOrdinal(int ordinal);
int ProcessOrdinal();

/// The dataflow round stamped onto subsequently emitted spans. Set by the
/// round drivers (DataflowJob::RunRound, RunMapReduce, proc worker task
/// entry).
void SetCurrentRound(int round);
int CurrentRound();

/// Call once in a freshly forked worker process (WorkerBody does): stamps
/// the process ordinal, discards span state inherited from the parent's
/// address space, and re-baselines metric deltas — so the worker's wire
/// snapshots ship only its own activity, never a copy of the parent's.
void BeginForkedProcess(int ordinal);

// ---------------------------------------------------------------------------
// Spans.

/// One collected span, after draining a thread buffer or decoding a wire
/// snapshot. Name/category are copies — safe to hold across processes.
struct TraceEvent {
  std::string name;
  std::string category;
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
  int process_ordinal = -1;
  int thread_ordinal = 0;
  int round = -1;
};

/// Emits a closed span retrospectively (e.g. the coordinator's
/// dispatch→done task spans, whose endpoints are observed at different
/// poll-loop iterations). No-op when
/// tracing is disabled. `category` and `name` must be string literals
/// (or otherwise outlive the process) — emission stores the pointers.
void EmitSpan(const char* category, const char* name, int64_t start_ns,
              int64_t end_ns);

/// RAII span: records [construction, destruction) on the emitting thread's
/// buffer. Inert when tracing is disabled at construction time.
class SpanScope {
 public:
  SpanScope(const char* category, const char* name)
      : category_(category), name_(name), start_ns_(Enabled() ? NowNs() : -1) {}
  ~SpanScope() {
    if (start_ns_ >= 0) EmitSpan(category_, name_, start_ns_, NowNs());
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  const char* category_;
  const char* name_;
  int64_t start_ns_;
};

#define DSEQ_TRACE_CONCAT_INNER(a, b) a##b
#define DSEQ_TRACE_CONCAT(a, b) DSEQ_TRACE_CONCAT_INNER(a, b)
/// `DSEQ_TRACE_SPAN("engine", "map_shard");` — scoped span over the rest of
/// the enclosing block. Category/name must be string literals.
#define DSEQ_TRACE_SPAN(category, name)             \
  ::dseq::obs::SpanScope DSEQ_TRACE_CONCAT(         \
      dseq_trace_span_, __COUNTER__)(category, name)

// ---------------------------------------------------------------------------
// Collection, cross-process merge, export.

/// Drains every thread's span buffer into the process-global trace sink
/// (each span is collected exactly once across flushes). Safe to call
/// while other threads keep emitting — concurrently emitted spans land in
/// this flush or the next, never torn, never lost.
void FlushThreadBuffers();

/// Flushes, then returns a copy of everything the sink holds (local spans
/// plus any ingested worker snapshots). Does not clear the sink.
std::vector<TraceEvent> SnapshotTrace();

/// Flushes, then moves the sink's events out (a proc worker's pre-kMapDone
/// flush: ship the delta, keep nothing).
std::vector<TraceEvent> TakeTrace();

/// Encodes a worker-side snapshot for a kTrace frame: drains this
/// process's spans (TakeTrace) and the metric registry's deltas since the
/// previous encode (see metrics.h). Repeated calls ship increments.
std::string EncodeWireSnapshot();

/// Coordinator side: decodes a kTrace payload, appends its spans to the
/// sink and merges its metric deltas into the registry. Spans that carry
/// no process ordinal are stamped with `fallback_process_ordinal`.
/// Returns false (ingesting nothing further) on a malformed payload.
bool IngestWireSnapshot(std::string_view payload, int fallback_process_ordinal);

/// Serializes the full merged timeline as Chrome trace-event JSON
/// ({"traceEvents":[...]}: "X" duration events in microseconds plus
/// process_name/thread_name "M" metadata), loadable in Perfetto and
/// chrome://tracing. Flushes first.
std::string ChromeTraceJson();

/// Test hook: flushes and discards all pending spans and sink contents,
/// and resets the round/ordinal stamps (the enabled flag is left alone).
void ResetTraceForTest();

}  // namespace obs
}  // namespace dseq

#endif  // DSEQ_OBS_TRACE_H_
