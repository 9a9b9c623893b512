#include "src/rpc/proc_backend.h"

#include <dirent.h>
#include <poll.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/dataflow/map_shard.h"
#include "src/dataflow/shuffle_buffer.h"
#include "src/fault/fault_injection.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/rpc/frame.h"
#include "src/rpc/socket.h"
#include "src/spill/memory_budget.h"
#include "src/spill/spill_file.h"
#include "src/util/block_codec.h"
#include "src/util/check.h"
#include "src/util/thread_pool.h"
#include "src/util/varint.h"

namespace dseq {
namespace {

using rpc::MsgConn;
using rpc::MsgType;

// Exception kinds carried in kError frames (see MsgType::kError).
enum ErrorKind : uint64_t {
  kErrRuntime = 0,
  kErrShuffleOverflow = 1,
  kErrInvalidArgument = 2,
  kErrOutOfRange = 3,
  kErrOverflow = 4,
};

// Segment kinds (see MsgType::kSegment).
constexpr uint64_t kSegmentRun = 0;
constexpr uint64_t kSegmentTail = 1;
constexpr uint64_t kSegmentPart = 2;  // continuation chunk of a large segment

// Respawn policy: exponential backoff per worker ordinal, bounded so a
// deterministically-crashing pool converges to a typed error instead of
// forking forever.
constexpr int kRespawnInitialBackoffMs = 10;
constexpr int kRespawnMaxBackoffMs = 1000;
constexpr int kMaxRespawnsPerWorker = 5;

[[noreturn]] void ProtocolError(const std::string& what) {
  throw std::runtime_error("proc backend: " + what);
}

void RequireVarint(std::string_view payload, size_t* pos, uint64_t* value,
                   const char* what) {
  if (!GetVarint(payload, pos, value)) {
    ProtocolError(std::string("truncated ") + what + " field");
  }
}

// Largest segment payload shipped in one kSegment frame; anything larger is
// split into kSegmentPart chunks. Re-read from the environment on every call
// because tests lower it per-case (DSEQ_PROC_TEST_CHUNK_BYTES) within one
// process. The default leaves header room under the frame cap.
size_t MaxSegmentChunkBytes() {
  const char* env = std::getenv("DSEQ_PROC_TEST_CHUNK_BYTES");
  if (env != nullptr) {
    long long v = std::atoll(env);
    if (v > 0) return static_cast<size_t>(v);
  }
  return static_cast<size_t>(rpc::kMaxFramePayloadBytes) - 4096;
}

// Whole-file read used to ship spill-run bytes verbatim. EINTR-safe: a
// short fread with EINTR pending clears the error and resumes.
std::string ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw std::runtime_error("proc backend: cannot reopen segment file " +
                             path + ": " + std::strerror(errno));
  }
  std::string out;
  char buf[64 * 1024];
  for (;;) {
    size_t n = std::fread(buf, 1, sizeof(buf), f);
    out.append(buf, n);
    if (n == sizeof(buf)) continue;
    if (std::ferror(f)) {
      if (errno == EINTR) {
        std::clearerr(f);
        continue;
      }
      int err = errno;
      std::fclose(f);
      throw std::runtime_error("proc backend: read of segment file " + path +
                               " failed: " + std::strerror(err));
    }
    break;  // short read without error = EOF
  }
  std::fclose(f);
  return out;
}

void AppendSegmentHeader(std::string* out, uint64_t task, uint64_t reducer,
                         uint64_t kind) {
  PutVarint(out, task);
  PutVarint(out, reducer);
  PutVarint(out, kind);
}

struct SegmentHeader {
  uint64_t task = 0;
  uint64_t reducer = 0;
  uint64_t kind = 0;
  std::string_view bytes;
};

SegmentHeader ParseSegment(std::string_view payload) {
  SegmentHeader h;
  size_t pos = 0;
  RequireVarint(payload, &pos, &h.task, "segment task");
  RequireVarint(payload, &pos, &h.reducer, "segment reducer");
  RequireVarint(payload, &pos, &h.kind, "segment kind");
  if (h.kind != kSegmentRun && h.kind != kSegmentTail &&
      h.kind != kSegmentPart) {
    ProtocolError("unknown segment kind " + std::to_string(h.kind));
  }
  h.bytes = payload.substr(pos);
  return h;
}

// Emits one logical segment as kSegment frames: zero or more kSegmentPart
// continuation chunks followed by one frame carrying the real header and the
// final chunk (see MsgType::kSegment). `emit` takes the encoded payload and
// returns false when the connection died; `chunk_frames`, when set, counts
// the continuation frames emitted.
template <typename Emit>
bool ForEachSegmentFrame(uint64_t task, uint64_t reducer, uint64_t kind,
                         std::string_view bytes, const Emit& emit,
                         uint64_t* chunk_frames = nullptr) {
  const size_t cap = std::max<size_t>(1, MaxSegmentChunkBytes());
  std::string seg;
  while (bytes.size() > cap) {
    seg.clear();
    AppendSegmentHeader(&seg, task, reducer, kSegmentPart);
    seg.append(bytes.data(), cap);
    bytes.remove_prefix(cap);
    if (!emit(seg)) return false;
    if (chunk_frames != nullptr) ++*chunk_frames;
  }
  seg.clear();
  AppendSegmentHeader(&seg, task, reducer, kind);
  seg.append(bytes.data(), bytes.size());
  return emit(seg);
}

// Reassembles logical segments from kSegment frames, on both ends of the
// transport: kSegmentPart chunks accumulate until the frame carrying the
// real kind terminates them. Chunks of one segment are never interleaved
// with another segment's (see MsgType::kSegment), so a chunk or terminator
// naming a different (task, reducer) than the open chunks is a protocol
// error.
class SegmentAssembler {
 public:
  /// Feeds one parsed frame. Returns true when it completes a segment,
  /// whose bytes are then in `*full`.
  bool Add(const SegmentHeader& h, std::string* full) {
    if (open_ && (task_ != h.task || reducer_ != h.reducer)) {
      ProtocolError(h.kind == kSegmentPart
                        ? "interleaved segment chunks"
                        : "segment chunk terminator mismatch");
    }
    if (h.kind == kSegmentPart) {
      open_ = true;
      task_ = h.task;
      reducer_ = h.reducer;
      bytes_.append(h.bytes.data(), h.bytes.size());
      return false;
    }
    *full = std::move(bytes_);
    Reset();
    full->append(h.bytes.data(), h.bytes.size());
    return true;
  }

  /// Drops any open chunks (a new task, or a dead worker's stream).
  void Reset() {
    open_ = false;
    std::string().swap(bytes_);
  }

 private:
  bool open_ = false;
  uint64_t task_ = 0;
  uint64_t reducer_ = 0;
  std::string bytes_;
};

// Heartbeat cadence: a quarter of the stall timeout, so a task that ticks
// at least that often beats well inside the kill window (a single tick
// unit longer than the timeout does not; see Heartbeat). 0 disables
// heartbeats.
int HeartbeatIntervalMs(const DataflowOptions& options) {
  if (options.proc_worker_timeout_ms > 0) {
    return std::clamp(options.proc_worker_timeout_ms / 4, 10, 1000);
  }
  return 0;
}

// Acts on a lifecycle fault drawn from worker.message / worker.before_commit
// sites. A no-op (and fully folded away) in default builds, where Evaluate
// is constexpr "no fault".
void ApplyLifecycleFault(const fault::Fault& f) {
  if (f.action == fault::Action::kKill) ::raise(SIGKILL);
  if (f.action == fault::Action::kStall && f.param > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(f.param));
  }
}

// ---------------------------------------------------------------------------
// Worker side. Everything below WorkerBody runs in a forked child: the
// round's closures are valid via the fork's address-space copy, all results
// leave through the connection, and the child never returns to the caller's
// stack (it _exits).

// The worker's connection to the coordinator. The task thread is its only
// user: it sends every frame, heartbeats included, and receives the reduce
// task's segment stream.
struct WorkerConn {
  explicit WorkerConn(MsgConn c) : conn(std::move(c)) {}

  bool Send(MsgType type, std::string_view payload) {
    // Frame send latency (encode + socket write). The registry lookup runs
    // once; a disabled run pays only the relaxed flag load.
    static obs::Histogram& send_ns_hist =
        obs::GetHistogram("rpc.frame_send_ns");
    if (!obs::Enabled()) return conn.Send(type, payload);
    const int64_t t0 = obs::NowNs();
    const bool ok = conn.Send(type, payload);
    send_ns_hist.Observe(obs::NowNs() - t0);
    return ok;
  }

  bool Recv(MsgType* type, std::string* payload) {
    return conn.Recv(type, payload);
  }

  MsgConn conn;
};

void SendOrThrow(WorkerConn& conn, MsgType type, std::string_view payload) {
  if (!conn.Send(type, payload)) {
    throw std::runtime_error("proc worker: coordinator connection lost");
  }
}

// Progress-gated heartbeat, beaten by the task thread itself: Tick() marks
// one unit of progress (a map input, a received segment, a reduced key
// group) and sends kPong when `interval_ms` has passed since the last beat.
// A hung task stops ticking and goes silent, so the coordinator's stall
// timeout fires. So does a working task stuck inside one unit for longer
// than the timeout (one key group that mines for long): nothing ticks
// between units (ROADMAP item S). Interval 0 (no stall timeout) never
// beats.
class Heartbeat {
 public:
  Heartbeat(WorkerConn* conn, int interval_ms)
      : conn_(conn),
        interval_(std::chrono::milliseconds(interval_ms)),
        last_beat_(obs::Now()) {}

  bool enabled() const { return interval_.count() > 0; }

  void Tick() {
    if (!enabled()) return;
    const auto now = obs::Now();
    if (now - last_beat_ < interval_) return;
    last_beat_ = now;
    conn_->Send(MsgType::kPong, {});  // best effort; EOF surfaces elsewhere
  }

 private:
  WorkerConn* const conn_;
  const std::chrono::milliseconds interval_;
  std::chrono::steady_clock::time_point last_beat_;
};

// Runs one map task: the shared RunMapShard body over [begin, end), then
// ships each reducer's output (spilled runs verbatim, then the stored
// bucket tail) and the task's raw metrics. The worker.before_commit fault
// site sits between the segments and kMapDone — dying there forces the
// coordinator to discard the staged segments and re-execute the task.
void RunWorkerMapTask(WorkerConn& conn, std::string_view payload,
                      const MapFn& map_fn, bool combine,
                      const DataflowOptions& options, int heartbeat_ms) {
  obs::SetCurrentRound(options.round_index);
  const int64_t task_start_ns = obs::NowNs();
  size_t pos = 0;
  uint64_t task = 0;
  uint64_t begin = 0;
  uint64_t end = 0;
  RequireVarint(payload, &pos, &task, "map task");
  RequireVarint(payload, &pos, &begin, "map begin");
  RequireVarint(payload, &pos, &end, "map end");
  int reduce_workers = ClampWorkers(options.num_reduce_workers);

  // Per-task state mirroring one row of the local engine's per-round
  // arrays. The budget is per-process: each map task gets the whole
  // configured budget, so spill *timing* differs from the local backend
  // (results and raw metrics do not — spilling is correctness-neutral).
  std::vector<ShuffleBuffer> buckets(reduce_workers);
  MemoryBudget budget(options.memory_budget_bytes);
  SpillStats spill_stats;
  std::vector<std::vector<SpillFile>> spill_runs(
      budget.enabled() ? reduce_workers : 0);
  std::vector<uint64_t> bucket_charged(reduce_workers, 0);
  std::atomic<uint64_t> shuffle_bytes{0};
  DataflowMetrics shard;
  Heartbeat heartbeat(&conn, heartbeat_ms);

  MapShardContext ctx;
  ctx.options = &options;
  ctx.map_worker = static_cast<int>(task);
  ctx.reduce_workers = reduce_workers;
  ctx.begin = begin;
  ctx.end = end;
  ctx.map_fn = &map_fn;
  ctx.combine = combine;
  ctx.buckets = buckets.data();
  ctx.spill_runs = budget.enabled() ? spill_runs.data() : nullptr;
  ctx.bucket_charged = bucket_charged.data();
  ctx.budget = &budget;
  ctx.spill_stats = &spill_stats;
  ctx.shuffle_bytes = &shuffle_bytes;
  ctx.metrics = &shard;
  if (heartbeat.enabled()) ctx.on_input = [&heartbeat] { heartbeat.Tick(); };
  RunMapShard(ctx);

  // Ship: per reducer, the spilled runs in chronological order, then the
  // bucket tail in stored form. This is exactly the source order the local
  // reduce phase uses per map worker, so the coordinator can replay
  // segments into an identical stable merge. Oversized segments leave as
  // continuation chunks (ForEachSegmentFrame).
  auto emit = [&](const std::string& seg) {
    return conn.Send(MsgType::kSegment, seg);
  };
  for (int r = 0; r < reduce_workers; ++r) {
    if (budget.enabled()) {
      for (SpillFile& run : spill_runs[r]) {
        std::string run_bytes = ReadFileBytes(run.path());
        if (!ForEachSegmentFrame(task, r, kSegmentRun, run_bytes, emit)) {
          throw std::runtime_error("proc worker: coordinator connection lost");
        }
      }
      spill_runs[r].clear();  // shipped; delete the local files now
    }
    std::string stored = buckets[r].ReleaseStored();
    if (stored.empty()) continue;  // nothing buffered for this reducer
    if (!ForEachSegmentFrame(task, r, kSegmentTail, stored, emit)) {
      throw std::runtime_error("proc worker: coordinator connection lost");
    }
  }

  ApplyLifecycleFault(fault::Evaluate(fault::Site::kWorkerCommit, task));

  // Relaxed: the spill counters were written by this thread during
  // RunMapShard.
  std::string done;
  PutVarint(&done, task);
  PutVarint(&done, shard.map_output_records);
  PutVarint(&done, shard.shuffle_records);
  PutVarint(&done, shard.shuffle_bytes);
  PutVarint(&done, shard.shuffle_compressed_bytes);
  PutVarint(&done, spill_stats.files.load(std::memory_order_relaxed));
  PutVarint(&done, spill_stats.bytes_written.load(std::memory_order_relaxed));
  PutVarint(&done, spill_stats.merge_passes.load(std::memory_order_relaxed));
  PutVarint(&done, reduce_workers);
  for (uint64_t bytes : shard.reducer_bytes) PutVarint(&done, bytes);
  // Close the task span, then ship the observability snapshot ahead of the
  // done frame so the coordinator ingests it before committing the task.
  // Best effort: a lost connection surfaces on the kMapDone send below.
  obs::EmitSpan("worker", "map_task", task_start_ns, obs::NowNs());
  if (obs::Enabled()) conn.Send(MsgType::kTrace, obs::EncodeWireSnapshot());
  SendOrThrow(conn, MsgType::kMapDone, done);
}

// Runs one reduce task over the segments the coordinator streams after the
// kReduceTask frame (already in map-task order, runs before the tail per
// task): each map task's segments become one ReduceColumnSource, and the
// column is reduced by RunReduceColumn — the local engine's reduce body.
void RunWorkerReduceTask(WorkerConn& conn, std::string_view payload,
                         const ReduceFn& reduce_fn,
                         const DataflowOptions& options, int heartbeat_ms) {
  obs::SetCurrentRound(options.round_index);
  const int64_t task_start_ns = obs::NowNs();
  size_t pos = 0;
  uint64_t reducer = 0;
  uint64_t num_segments = 0;
  RequireVarint(payload, &pos, &reducer, "reduce task");
  RequireVarint(payload, &pos, &num_segments, "reduce segment count");

  Heartbeat heartbeat(&conn, heartbeat_ms);
  std::vector<ReduceColumnSource> sources;
  uint64_t source_task = 0;
  // A failure while folding a segment in (a full spill disk, a corrupt
  // block) is held until the stream is drained: the coordinator, done
  // sending, then reads it as this task's kError instead of a connection
  // dropped mid-send.
  std::exception_ptr failure;
  SegmentAssembler assembler;
  const int64_t stream_start_ns = obs::NowNs();
  for (uint64_t i = 0; i < num_segments;) {
    MsgType type;
    std::string frame;
    if (!conn.Recv(&type, &frame)) {
      throw std::runtime_error("proc worker: coordinator connection lost");
    }
    if (type != MsgType::kSegment) ProtocolError("expected a segment frame");
    SegmentHeader h = ParseSegment(frame);
    if (h.reducer != reducer) ProtocolError("segment for the wrong reducer");
    std::string full;
    if (!assembler.Add(h, &full)) continue;
    if (failure == nullptr) {
      try {
        if (sources.empty() || h.task != source_task) {
          sources.emplace_back();
          source_task = h.task;
        }
        ReduceColumnSource& source = sources.back();
        if (!source.tail.empty()) {
          ProtocolError("segment after its map task's tail");
        }
        if (h.kind == kSegmentRun) {
          // The shipped bytes are a complete spill run; materializing them
          // into a SpillFile makes them a local run again, verbatim.
          SpillFile run = SpillFile::Create(options.spill_dir);
          run.Append(full.data(), full.size());
          run.FinishWrite();
          source.runs.push_back(std::move(run));
        } else {
          // A shipped tail is compressed iff the round compresses: the
          // map shard compresses every non-empty bucket exactly then.
          if (!options.compress_shuffle) {
            source.tail = std::move(full);
          } else if (!DecompressBlock(full, &source.tail)) {
            throw std::runtime_error(
                "proc worker: corrupt compressed shuffle segment");
          }
        }
      } catch (...) {
        failure = std::current_exception();
      }
    }
    heartbeat.Tick();
    ++i;
  }
  obs::EmitSpan("worker", "segment_stream", stream_start_ns, obs::NowNs());
  if (failure != nullptr) std::rethrow_exception(failure);

  MemoryBudget budget(options.memory_budget_bytes);
  SpillStats spill_stats;
  uint64_t num_records = 0;
  std::string record_bytes;
  EmitFn emit = [&](std::string_view key, std::string_view value) {
    ++num_records;
    PutVarint(&record_bytes, key.size());
    PutVarint(&record_bytes, value.size());
    record_bytes.append(key.data(), key.size());
    record_bytes.append(value.data(), value.size());
  };
  RunReduceColumn(
      std::move(sources), options, &spill_stats, &budget,
      [&](std::string_view key, std::vector<std::string_view>& values) {
        reduce_fn(static_cast<int>(reducer), key, values, emit);
        heartbeat.Tick();
      });

  // Relaxed: spill stats were written by this task thread only.
  std::string done;
  PutVarint(&done, reducer);
  PutVarint(&done, spill_stats.files.load(std::memory_order_relaxed));
  PutVarint(&done, spill_stats.bytes_written.load(std::memory_order_relaxed));
  PutVarint(&done, spill_stats.merge_passes.load(std::memory_order_relaxed));
  PutVarint(&done, num_records);
  done += record_bytes;
  // Same snapshot ordering as the map task: span closed, snapshot shipped,
  // then the done frame that commits the task on the coordinator.
  obs::EmitSpan("worker", "reduce_task", task_start_ns, obs::NowNs());
  if (obs::Enabled()) conn.Send(MsgType::kTrace, obs::EncodeWireSnapshot());
  SendOrThrow(conn, MsgType::kReduceDone, done);
}

// The worker loop: connect, announce the ordinal, then serve tasks until
// shutdown. Returns the child's exit code; the caller _exits with it (all
// RAII state lives inside this function's scopes). Lifecycle faults
// (worker.message) are evaluated once per task message.
int WorkerBody(int ordinal, uint16_t port, const MapFn& map_fn, bool combine,
               const ReduceFn& reduce_fn, const DataflowOptions& options) {
  rpc::IgnoreSigPipe();
  fault::SetProcessScope(ordinal);
  // Discard span/metric state inherited through fork and stamp this
  // process's ordinal: wire snapshots must carry only the worker's own
  // activity, never a copy of the coordinator's.
  obs::BeginForkedProcess(ordinal);
  std::unique_ptr<WorkerConn> conn;
  try {
    conn = std::make_unique<WorkerConn>(MsgConn(rpc::ConnectLoopback(port)));
    std::string hello;
    PutVarint(&hello, ordinal);
    SendOrThrow(*conn, MsgType::kHello, hello);
  } catch (const std::exception&) {
    return 1;  // no connection to report through
  }

  const int heartbeat_ms = HeartbeatIntervalMs(options);
  uint64_t task_messages = 0;
  try {
    for (;;) {
      MsgType type;
      std::string payload;
      if (!conn->Recv(&type, &payload)) return 1;  // coordinator gone
      if (type == MsgType::kShutdown) return 0;
      ++task_messages;
      ApplyLifecycleFault(
          fault::Evaluate(fault::Site::kWorkerMessage, task_messages));
      if (type == MsgType::kMapTask) {
        RunWorkerMapTask(*conn, payload, map_fn, combine, options,
                         heartbeat_ms);
      } else if (type == MsgType::kReduceTask) {
        RunWorkerReduceTask(*conn, payload, reduce_fn, options, heartbeat_ms);
      } else {
        ProtocolError("unexpected message from coordinator");
      }
    }
  } catch (const std::exception& e) {
    uint64_t kind = kErrRuntime;
    if (dynamic_cast<const ShuffleOverflowError*>(&e) != nullptr) {
      kind = kErrShuffleOverflow;
    } else if (dynamic_cast<const std::invalid_argument*>(&e) != nullptr) {
      kind = kErrInvalidArgument;
    } else if (dynamic_cast<const std::out_of_range*>(&e) != nullptr) {
      kind = kErrOutOfRange;
    } else if (dynamic_cast<const std::overflow_error*>(&e) != nullptr) {
      kind = kErrOverflow;
    }
    std::string err;
    PutVarint(&err, kind);
    err += e.what();
    conn->Send(MsgType::kError, err);  // best effort
    return 1;
  }
}

// ---------------------------------------------------------------------------
// Coordinator side.

// One shuffle segment held between the phases: its bytes in memory,
// charged to the coordinator's MemoryBudget, or parked in a spill file
// (Coordinator::StoreSegment decides). Move-only; destroying it — a
// discarded stage, a re-executed task's replaced output, the end of the
// round — releases its charge.
struct StoredSegment {
  StoredSegment() = default;
  StoredSegment(StoredSegment&& other) noexcept
      : kind(other.kind),
        bytes(std::move(other.bytes)),
        file(std::move(other.file)),
        budget(other.budget),
        charged(std::exchange(other.charged, 0)) {}
  StoredSegment& operator=(StoredSegment&&) = delete;
  ~StoredSegment() {
    if (charged > 0) budget->Release(charged);
  }

  uint64_t kind = 0;
  std::string bytes;                // held in memory, or
  std::unique_ptr<SpillFile> file;  // parked on disk
  MemoryBudget* budget = nullptr;
  uint64_t charged = 0;
};

class Coordinator {
 public:
  Coordinator(size_t num_inputs, const MapFn& map_fn, bool combine,
              const ReduceFn& reduce_fn, const DataflowOptions& options)
      : num_inputs_(num_inputs),
        map_fn_(map_fn),
        combine_(combine),
        reduce_fn_(reduce_fn),
        options_(options),
        map_tasks_(ClampWorkers(options.num_map_workers)),
        reduce_tasks_(ClampWorkers(options.num_reduce_workers)),
        max_attempts_(std::max(1, options.proc_max_task_attempts)),
        budget_(options.memory_budget_bytes) {
    // Sized here, not via a fill constructor: StoredSegment is move-only
    // (it owns its parked SpillFile), and vector's fill path copies.
    for (auto& per_task : store_) {
      per_task.resize(static_cast<size_t>(reduce_tasks_));
    }
  }

  ~Coordinator() {
    Cleanup();
    // Every held segment releases its charge when it dies.
    store_.clear();
    workers_.clear();
    DSEQ_DCHECK_EQ(budget_.used_bytes(), 0u);
  }

  RoundResult Run() {
    rpc::IgnoreSigPipe();
    if (options_.proc_round_deadline_ms > 0) {
      has_deadline_ = true;
      deadline_ = obs::Now() +
                  std::chrono::milliseconds(options_.proc_round_deadline_ms);
    }
    Spawn();
    RoundResult result;
    {
      auto start = obs::Now();
      RunTasks(map_tasks_, "map",
               [this](Worker& w, int t) { return SendMapTask(w, t); },
               [this](Worker& w, MsgType type, std::string_view payload) {
                 return OnMapFrame(w, type, payload);
               });
      result.metrics.map_seconds = obs::SecondsSince(start);
    }
    {
      auto start = obs::Now();
      RunTasks(reduce_tasks_, "reduce",
               [this](Worker& w, int t) { return SendReduceTask(w, t); },
               [this](Worker& w, MsgType type, std::string_view payload) {
                 return OnReduceFrame(w, type, payload);
               });
      result.metrics.reduce_seconds = obs::SecondsSince(start);
    }
    Cleanup();  // graceful shutdown while results are assembled below

    DataflowMetrics& m = result.metrics;
    for (const DataflowMetrics& task : map_task_metrics_) m.Accumulate(task);
    m.Accumulate(reduce_task_metrics_);
    m.proc_task_attempts = attempts_total_;
    m.proc_task_retries = retries_total_;
    m.proc_worker_kills = kills_;
    m.proc_workers_respawned = respawns_;
    m.proc_segment_chunks = segment_chunks_;
    m.proc_parked_segments = parked_segments_;
    size_t total = 0;
    for (const auto& records : reduce_records_) total += records.size();
    result.records.reserve(total);
    for (auto& records : reduce_records_) {
      for (Record& record : records) result.records.push_back(std::move(record));
    }
    return result;
  }

 private:
  struct Worker {
    pid_t pid = -1;
    int ordinal = -1;
    std::unique_ptr<MsgConn> conn;
    bool exited = false;    // reaped by waitpid
    bool spawning = false;  // (re)forked but not yet connected
    int task = -1;          // in-flight task, -1 when idle
    int deaths = 0;         // lifetime deaths of this ordinal's slot
    bool respawn_pending = false;
    std::chrono::steady_clock::time_point respawn_at;
    std::chrono::steady_clock::time_point last_progress;
    // When the in-flight task was dispatched, closed into a retrospective
    // span when its done frame arrives.
    int64_t dispatch_ns = 0;
    // Segments of the in-flight map task, discarded if the worker dies
    // before kMapDone commits them.
    std::vector<std::pair<int, StoredSegment>> staged;
    SegmentAssembler assembler;
  };

  // Per-task retry bookkeeping of the current phase.
  struct TaskState {
    int attempts = 0;
    std::string last_failure;
  };

  bool Alive(const Worker& w) const { return w.conn != nullptr; }

  int AliveCount() const {
    int n = 0;
    for (const Worker& w : workers_) n += Alive(w) ? 1 : 0;
    return n;
  }

  bool AnyRespawnScheduled() const {
    for (const Worker& w : workers_) {
      if (w.respawn_pending || w.spawning) return true;
    }
    return false;
  }

  void Spawn() {
    // Covers fork + the connect/hello handshake of the whole pool. The
    // children never run this destructor — they leave through _exit.
    DSEQ_TRACE_SPAN("proc", "fork_workers");
    int pool = std::max(map_tasks_, reduce_tasks_);
    listen_fd_ = rpc::ListenLoopback(&port_);
    workers_.resize(pool);
    for (int w = 0; w < pool; ++w) {
      pid_t pid = ::fork();
      if (pid < 0) {
        int err = errno;
        throw ProcBackendError(std::string("proc backend: fork: ") +
                               std::strerror(err));
      }
      if (pid == 0) {
        ::close(listen_fd_);
        // The child serves the round and leaves through _exit — never
        // through the coordinator's stack (its RAII state all lives inside
        // WorkerBody's scopes).
        ::_exit(WorkerBody(w, port_, map_fn_, combine_, reduce_fn_,
                           options_));
      }
      workers_[w].pid = pid;
      workers_[w].ordinal = w;
      workers_[w].spawning = true;
      all_pids_.push_back(pid);
    }
    AcceptWorkers();
  }

  // Accepts one pending connection on the listener and binds it to the
  // worker slot named in its kHello. A connection that dies before the
  // hello is dropped; its child shows up in Reap().
  void AcceptOne() {
    MsgConn conn(rpc::AcceptConn(listen_fd_));
    MsgType type;
    std::string payload;
    if (!conn.Recv(&type, &payload) || type != MsgType::kHello) return;
    size_t pos = 0;
    uint64_t ordinal = 0;
    RequireVarint(payload, &pos, &ordinal, "hello ordinal");
    if (ordinal >= workers_.size() || Alive(workers_[ordinal])) {
      ProtocolError("bad hello ordinal " + std::to_string(ordinal));
    }
    Worker& w = workers_[ordinal];
    w.conn = std::make_unique<MsgConn>(std::move(conn));
    w.spawning = false;
    w.last_progress = obs::Now();
  }

  void AcceptWorkers() {
    auto deadline = obs::Now() + std::chrono::seconds(30);
    for (;;) {
      Reap();
      bool settled = true;
      for (Worker& w : workers_) {
        if (!Alive(w) && !w.exited) settled = false;
        if (w.exited) w.spawning = false;
      }
      if (settled) {
        // Workers that died before connecting get the same respawn policy
        // as mid-round deaths; the pool only counts as lost when nobody is
        // alive and nobody is coming back.
        for (Worker& w : workers_) {
          if (!Alive(w) && !w.respawn_pending) ScheduleRespawn(w);
        }
        if (AliveCount() == 0 && !AnyRespawnScheduled()) {
          throw ProcBackendError(
              "proc backend: every worker died before connecting");
        }
        return;
      }
      if (obs::Now() > deadline) {
        throw ProcBackendError(
            "proc backend: workers failed to connect within 30s");
      }
      pollfd p{listen_fd_, POLLIN, 0};
      int n = ::poll(&p, 1, 100);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw ProcBackendError(std::string("proc backend: poll: ") +
                               std::strerror(errno));
      }
      if (n == 0 || (p.revents & POLLIN) == 0) continue;
      AcceptOne();
    }
  }

  void Reap() {
    for (Worker& w : workers_) {
      if (w.exited || w.pid < 0) continue;
      int status = 0;
      if (::waitpid(w.pid, &status, WNOHANG) == w.pid) w.exited = true;
    }
    for (auto& [pid, reaped] : graveyard_) {
      if (reaped) continue;
      int status = 0;
      if (::waitpid(pid, &status, WNOHANG) == pid) reaped = true;
    }
  }

  // Records a death of this ordinal's slot and, within the respawn budget,
  // schedules a replacement fork after an exponential backoff.
  void ScheduleRespawn(Worker& w) {
    ++w.deaths;
    if (w.deaths > kMaxRespawnsPerWorker) return;  // slot stays dead
    int backoff = std::min(kRespawnInitialBackoffMs << (w.deaths - 1),
                           kRespawnMaxBackoffMs);
    w.respawn_pending = true;
    w.respawn_at = obs::Now() + std::chrono::milliseconds(backoff);
  }

  // Forks replacements whose backoff has elapsed. The child must drop every
  // coordinator-side fd it inherited — other workers' connections and the
  // listener — or a dead sibling would never read as EOF on the coordinator.
  void MaybeRespawn() {
    auto now = obs::Now();
    for (Worker& w : workers_) {
      if (!w.respawn_pending || now < w.respawn_at) continue;
      const int64_t respawn_start_ns = obs::NowNs();
      pid_t pid = ::fork();
      if (pid < 0) {
        w.respawn_at = now + std::chrono::milliseconds(100);  // retry later
        continue;
      }
      if (pid == 0) {
        for (Worker& other : workers_) other.conn.reset();
        ::close(listen_fd_);
        ::_exit(WorkerBody(w.ordinal, port_, map_fn_, combine_,
                           reduce_fn_, options_));
      }
      if (w.pid >= 0 && !w.exited) graveyard_.emplace_back(w.pid, false);
      w.pid = pid;
      w.exited = false;
      w.spawning = true;
      w.respawn_pending = false;
      ++respawns_;
      all_pids_.push_back(pid);
      obs::EmitSpan("proc", "worker_respawn", respawn_start_ns, obs::NowNs());
    }
  }

  // Declares a worker dead: its connection is dropped, its uncommitted
  // segments are discarded (committed output in store_ is untouched — that
  // is the re-execution correctness contract), a replacement fork is
  // scheduled, and its in-flight task goes back to the queue — unless the
  // task has burned its whole attempt budget, which ends the round with a
  // typed error naming the task and what kept killing it.
  void MarkDead(Worker& w, std::deque<int>* pending, const std::string& reason) {
    w.conn.reset();
    w.staged.clear();
    w.assembler.Reset();
    int task = w.task;
    w.task = -1;
    ScheduleRespawn(w);
    if (task == -1) return;
    TaskState& ts = task_state_[task];
    ts.last_failure = reason;
    if (ts.attempts >= max_attempts_) {
      throw ProcTaskFailedError(phase_, task, ts.attempts, reason);
    }
    pending->push_back(task);
  }

  void CheckDeadline(int done, int num_tasks) {
    if (!has_deadline_ || obs::Now() <= deadline_) return;
    throw ProcDeadlineError(
        "proc backend: round " + std::to_string(options_.round_index) +
        " exceeded its deadline (" +
        std::to_string(options_.proc_round_deadline_ms) + " ms) in the " +
        phase_ + " phase (" + std::to_string(done) + "/" +
        std::to_string(num_tasks) + " tasks done)");
  }

  // Generic phase driver: schedules tasks 0..num_tasks-1 onto idle workers,
  // pumps their connections, reassigns tasks of dead (or stalled) workers
  // within the per-task attempt budget, respawns replacements, and enforces
  // the round deadline. `send_task` returns false when the worker died
  // mid-send; `on_frame` returns true when the worker's in-flight task
  // completed (and throws to abort the round, e.g. on kError).
  void RunTasks(int num_tasks, const char* phase,
                const std::function<bool(Worker&, int)>& send_task,
                const std::function<bool(Worker&, MsgType, std::string_view)>&
                    on_frame) {
    phase_ = phase;
    // Span names must be literals with process lifetime (EmitSpan stores
    // the pointer), so the per-phase dispatch name is picked, not built.
    const char* dispatch_span =
        std::strcmp(phase, "map") == 0 ? "map_dispatch" : "reduce_dispatch";
    task_state_.assign(static_cast<size_t>(num_tasks), TaskState{});
    const int hb_ms = HeartbeatIntervalMs(options_);
    std::deque<int> pending;
    for (int t = 0; t < num_tasks; ++t) pending.push_back(t);
    int done = 0;
    while (done < num_tasks) {
      CheckDeadline(done, num_tasks);
      Reap();
      // A replacement that died before connecting counts as another death
      // of its slot (it never reaches MarkDead — it has no connection).
      for (Worker& w : workers_) {
        if (w.spawning && w.exited) {
          w.spawning = false;
          ScheduleRespawn(w);
        }
      }
      MaybeRespawn();
      if (AliveCount() == 0 && !AnyRespawnScheduled()) {
        throw ProcBackendError(
            "proc backend: every worker died with tasks outstanding");
      }
      auto now = obs::Now();
      for (Worker& w : workers_) {
        if (pending.empty()) break;
        if (!Alive(w) || w.task != -1) continue;
        w.task = pending.front();
        pending.pop_front();
        w.staged.clear();
        w.assembler.Reset();
        TaskState& ts = task_state_[w.task];
        ++ts.attempts;
        ++attempts_total_;
        if (ts.attempts > 1) ++retries_total_;
        w.last_progress = now;
        w.dispatch_ns = obs::ToNs(now);
        if (!send_task(w, w.task)) {
          MarkDead(w, &pending, "worker " + std::to_string(w.ordinal) +
                                    " connection lost sending the task");
        }
      }

      std::vector<pollfd> pfds;
      std::vector<Worker*> order;
      for (Worker& w : workers_) {
        if (!Alive(w)) continue;
        pfds.push_back(pollfd{w.conn->fd(), POLLIN, 0});
        order.push_back(&w);
      }
      pfds.push_back(pollfd{listen_fd_, POLLIN, 0});
      int timeout_ms = options_.proc_worker_timeout_ms > 0 ? 50 : 200;
      if (hb_ms > 0) timeout_ms = std::min(timeout_ms, hb_ms);
      for (const Worker& w : workers_) {
        if (w.respawn_pending) timeout_ms = std::min(timeout_ms, 10);
      }
      int n = ::poll(pfds.data(), pfds.size(), timeout_ms);
      if (n < 0 && errno != EINTR) {
        throw ProcBackendError(std::string("proc backend: poll: ") +
                               std::strerror(errno));
      }
      if (n > 0) {
        for (size_t i = 0; i + 1 < pfds.size(); ++i) {
          if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
          Worker& w = *order[i];
          if (!Alive(w)) continue;
          bool io_ok = w.conn->FillOnce();
          for (;;) {
            MsgType type;
            std::string payload;
            auto status = w.conn->TryNext(&type, &payload);
            if (status == rpc::FrameDecoder::Status::kNeedMore) break;
            if (status == rpc::FrameDecoder::Status::kBadFrame) {
              ProtocolError("malformed frame from worker " +
                            std::to_string(w.ordinal));
            }
            // Every frame counts as progress; kPong exists only for that.
            w.last_progress = obs::Now();
            if (type == MsgType::kPong) continue;
            if (type == MsgType::kTrace) {
              // Worker observability snapshot: merge spans (stamped with
              // the sender's ordinal) and fold metric deltas into the
              // registry. Malformed payloads are dropped, never fatal.
              obs::IngestWireSnapshot(payload, w.ordinal);
              continue;
            }
            if (on_frame(w, type, payload)) {
              obs::EmitSpan("proc", dispatch_span, w.dispatch_ns,
                            obs::NowNs());
              ++done;
              w.task = -1;
              w.staged.clear();
              w.assembler.Reset();
            }
          }
          if (!io_ok) {
            MarkDead(w, &pending, "worker " + std::to_string(w.ordinal) +
                                      " connection lost (process death or "
                                      "mid-frame disconnect)");
          }
        }
        if ((pfds.back().revents & POLLIN) != 0) AcceptOne();
      }

      if (options_.proc_worker_timeout_ms > 0) {
        now = obs::Now();
        auto limit = std::chrono::milliseconds(options_.proc_worker_timeout_ms);
        for (Worker& w : workers_) {
          if (!Alive(w) || w.task == -1) continue;
          if (now - w.last_progress <= limit) continue;
          ::kill(w.pid, SIGKILL);  // hung (not merely slow): reclaim forcibly
          ++kills_;
          // The stall is the span: last observed progress → the kill.
          obs::EmitSpan("proc", "worker_stall_kill",
                        obs::ToNs(w.last_progress), obs::ToNs(now));
          MarkDead(w, &pending,
                   "worker " + std::to_string(w.ordinal) +
                       " made no progress for " +
                       std::to_string(options_.proc_worker_timeout_ms) +
                       " ms and was killed");
        }
      }
      Reap();
    }
  }

  bool SendMapTask(Worker& w, int task) {
    size_t shard = (num_inputs_ + map_tasks_ - 1) / map_tasks_;
    size_t begin = std::min(num_inputs_, static_cast<size_t>(task) * shard);
    size_t end = std::min(num_inputs_, begin + shard);
    std::string payload;
    PutVarint(&payload, task);
    PutVarint(&payload, begin);
    PutVarint(&payload, end);
    return w.conn->Send(MsgType::kMapTask, payload);
  }

  bool OnMapFrame(Worker& w, MsgType type, std::string_view payload) {
    if (type == MsgType::kError) ThrowWorkerError(payload);
    if (type == MsgType::kSegment) {
      // Per-frame, so a chunked transfer shows as a burst of receive spans.
      DSEQ_TRACE_SPAN("proc", "segment_receive");
      SegmentHeader h = ParseSegment(payload);
      if (w.task < 0 || h.task != static_cast<uint64_t>(w.task) ||
          h.reducer >= static_cast<uint64_t>(reduce_tasks_)) {
        ProtocolError("segment outside the worker's in-flight task");
      }
      if (h.kind == kSegmentPart) ++segment_chunks_;
      std::string full;
      if (!w.assembler.Add(h, &full)) return false;
      static obs::Histogram& seg_bytes_hist =
          obs::GetHistogram("proc.segment_bytes");
      if (obs::Enabled()) seg_bytes_hist.Observe(full.size());
      if (h.kind == kSegmentRun && options_.spill_dir.empty()) {
        ProtocolError("run segment without a spill directory");
      }
      w.staged.emplace_back(static_cast<int>(h.reducer),
                            StoreSegment(h.kind, std::move(full)));
      return false;
    }
    if (type == MsgType::kMapDone) {
      size_t pos = 0;
      uint64_t task = 0;
      RequireVarint(payload, &pos, &task, "map-done task");
      if (w.task < 0 || task != static_cast<uint64_t>(w.task)) {
        ProtocolError("map-done outside the worker's in-flight task");
      }
      DataflowMetrics report;
      RequireVarint(payload, &pos, &report.map_output_records, "map-done");
      RequireVarint(payload, &pos, &report.shuffle_records, "map-done");
      RequireVarint(payload, &pos, &report.shuffle_bytes, "map-done");
      RequireVarint(payload, &pos, &report.shuffle_compressed_bytes,
                    "map-done");
      RequireVarint(payload, &pos, &report.spill_files, "map-done");
      RequireVarint(payload, &pos, &report.spill_bytes_written, "map-done");
      RequireVarint(payload, &pos, &report.spill_merge_passes, "map-done");
      uint64_t num_reducers = 0;
      RequireVarint(payload, &pos, &num_reducers, "map-done reducer count");
      if (num_reducers != static_cast<uint64_t>(reduce_tasks_)) {
        ProtocolError("map-done reducer count mismatch");
      }
      report.reducer_bytes.resize(reduce_tasks_);
      for (int r = 0; r < reduce_tasks_; ++r) {
        RequireVarint(payload, &pos, &report.reducer_bytes[r],
                      "map-done reducer bytes");
      }
      // Commit: the task's segments become durable coordinator state, its
      // metrics enter the round totals, and the global shuffle budget is
      // enforced on the committed sum (each worker already enforced the
      // per-task share inside RunMapShard).
      {
        DSEQ_TRACE_SPAN("proc", "segment_commit");
        for (auto& per_reducer : store_[w.task]) per_reducer.clear();
        for (auto& [reducer, seg] : w.staged) {
          store_[w.task][reducer].push_back(std::move(seg));
        }
        w.staged.clear();
      }
      committed_shuffle_bytes_ += report.shuffle_bytes;
      map_task_metrics_[w.task] = std::move(report);
      if (options_.shuffle_budget_bytes > 0 &&
          committed_shuffle_bytes_ > options_.shuffle_budget_bytes) {
        throw ShuffleOverflowError(
            "round " + std::to_string(options_.round_index) +
            ": shuffle volume exceeded the budget across map tasks (budget " +
            std::to_string(options_.shuffle_budget_bytes) +
            " bytes, committed " + std::to_string(committed_shuffle_bytes_) +
            " bytes)");
      }
      return true;
    }
    ProtocolError("unexpected frame during the map phase");
  }

  // Holds a segment in memory while the round's budget has room for it and
  // parks it in a spill file otherwise. Without a spill directory it is
  // held regardless (ForceCharge), so the budget never fails the
  // coordinator; budget 0 holds everything, like the local backend.
  StoredSegment StoreSegment(uint64_t kind, std::string bytes) {
    StoredSegment seg;
    seg.kind = kind;
    const uint64_t size = bytes.size();
    if (!budget_.TryCharge(size)) {
      if (!options_.spill_dir.empty()) {
        seg.file = std::make_unique<SpillFile>(
            SpillFile::Create(options_.spill_dir));
        seg.file->Append(bytes.data(), size);
        seg.file->FinishWrite();
        ++parked_segments_;
        return seg;
      }
      budget_.ForceCharge(size);
    }
    seg.bytes = std::move(bytes);
    seg.budget = &budget_;
    seg.charged = size;
    return seg;
  }

  bool SendReduceTask(Worker& w, int reducer) {
    // Covers the replay of every committed segment to the reduce worker.
    DSEQ_TRACE_SPAN("proc", "segment_replay");
    uint64_t num_segments = 0;
    for (int t = 0; t < map_tasks_; ++t) {
      num_segments += store_[t][reducer].size();
    }
    std::string payload;
    PutVarint(&payload, reducer);
    PutVarint(&payload, num_segments);
    if (!w.conn->Send(MsgType::kReduceTask, payload)) return false;
    // Replay in map-task order — the stability contract of the reduce merge
    // (identical to the local engine's source order), regardless of the
    // order map tasks happened to finish in. Oversized segments re-chunk on
    // the way out exactly as they arrived.
    auto emit = [&](const std::string& seg) {
      return w.conn->Send(MsgType::kSegment, seg);
    };
    for (int t = 0; t < map_tasks_; ++t) {
      for (const StoredSegment& s : store_[t][reducer]) {
        // Held bytes go out in place; a parked segment is read back whole.
        std::string parked;
        if (s.file != nullptr) parked = ReadFileBytes(s.file->path());
        std::string_view bytes = s.file != nullptr
                                     ? std::string_view(parked)
                                     : std::string_view(s.bytes);
        if (!ForEachSegmentFrame(t, reducer, s.kind, bytes, emit,
                                 &segment_chunks_)) {
          return false;
        }
      }
    }
    return true;
  }

  bool OnReduceFrame(Worker& w, MsgType type, std::string_view payload) {
    if (type == MsgType::kError) ThrowWorkerError(payload);
    if (type != MsgType::kReduceDone) {
      ProtocolError("unexpected frame during the reduce phase");
    }
    size_t pos = 0;
    uint64_t reducer = 0;
    RequireVarint(payload, &pos, &reducer, "reduce-done reducer");
    if (w.task < 0 || reducer != static_cast<uint64_t>(w.task)) {
      ProtocolError("reduce-done outside the worker's in-flight task");
    }
    DataflowMetrics report;
    uint64_t num_records = 0;
    RequireVarint(payload, &pos, &report.spill_files, "reduce-done");
    RequireVarint(payload, &pos, &report.spill_bytes_written, "reduce-done");
    RequireVarint(payload, &pos, &report.spill_merge_passes, "reduce-done");
    RequireVarint(payload, &pos, &num_records, "reduce-done record count");
    std::vector<Record>& records = reduce_records_[reducer];
    records.clear();  // a re-executed task replaces, never appends
    records.reserve(num_records);
    for (uint64_t i = 0; i < num_records; ++i) {
      uint64_t key_size = 0;
      uint64_t value_size = 0;
      RequireVarint(payload, &pos, &key_size, "record key size");
      RequireVarint(payload, &pos, &value_size, "record value size");
      if (key_size > payload.size() - pos ||
          value_size > payload.size() - pos - key_size) {
        ProtocolError("truncated boundary record");
      }
      Record record;
      record.key.assign(payload.substr(pos, key_size));
      pos += key_size;
      record.value.assign(payload.substr(pos, value_size));
      pos += value_size;
      records.push_back(std::move(record));
    }
    reduce_task_metrics_.Accumulate(report);
    return true;
  }

  [[noreturn]] void ThrowWorkerError(std::string_view payload) {
    size_t pos = 0;
    uint64_t kind = 0;
    RequireVarint(payload, &pos, &kind, "error kind");
    std::string message(payload.substr(pos));
    switch (kind) {
      case kErrShuffleOverflow:
        throw ShuffleOverflowError(message);
      case kErrInvalidArgument:
        throw std::invalid_argument(message);
      case kErrOutOfRange:
        throw std::out_of_range(message);
      case kErrOverflow:
        throw std::overflow_error(message);
      default:
        throw std::runtime_error(message);
    }
  }

  // Ends the worker pool: graceful shutdown first, SIGKILL for stragglers,
  // then reap everything — current workers and the graveyard of replaced
  // pids — and sweep orphaned spill files of every pid the round ever
  // forked (spill file names embed the owning pid, so a SIGKILLed worker's
  // leftovers are identifiable). Idempotent; called from the success path
  // and the destructor.
  void Cleanup() {
    for (Worker& w : workers_) {
      if (Alive(w)) {
        w.conn->Send(MsgType::kShutdown, {});
        w.conn.reset();
      }
    }
    auto deadline = obs::Now() + std::chrono::seconds(5);
    for (;;) {
      Reap();
      bool all_exited = true;
      for (const Worker& w : workers_) {
        if (w.pid >= 0 && !w.exited) all_exited = false;
      }
      for (const auto& [pid, reaped] : graveyard_) {
        if (!reaped) all_exited = false;
      }
      if (all_exited) break;
      if (obs::Now() > deadline) {
        for (Worker& w : workers_) {
          if (w.pid >= 0 && !w.exited) ::kill(w.pid, SIGKILL);
        }
        for (auto& [pid, reaped] : graveyard_) {
          if (!reaped) ::kill(pid, SIGKILL);
        }
        for (Worker& w : workers_) {
          if (w.pid < 0 || w.exited) continue;
          int status = 0;
          while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
          }
          w.exited = true;
        }
        for (auto& [pid, reaped] : graveyard_) {
          if (reaped) continue;
          int status = 0;
          while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
          }
          reaped = true;
        }
        break;
      }
      ::usleep(2000);
    }
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    RemoveOrphanSpillFiles();
  }

  void RemoveOrphanSpillFiles() {
    if (options_.spill_dir.empty() || all_pids_.empty()) return;
    DIR* dir = ::opendir(options_.spill_dir.c_str());
    if (dir == nullptr) return;
    std::vector<std::string> prefixes;
    prefixes.reserve(all_pids_.size());
    for (pid_t pid : all_pids_) {
      prefixes.push_back("spill-" + std::to_string(pid) + "-");
    }
    std::vector<std::string> doomed;
    while (dirent* entry = ::readdir(dir)) {
      std::string_view name(entry->d_name);
      for (const std::string& prefix : prefixes) {
        if (name.size() > prefix.size() &&
            name.substr(0, prefix.size()) == prefix) {
          doomed.push_back(options_.spill_dir + "/" + std::string(name));
          break;
        }
      }
    }
    ::closedir(dir);
    for (const std::string& path : doomed) ::unlink(path.c_str());
  }

  const size_t num_inputs_;
  const MapFn& map_fn_;
  const bool combine_;
  const ReduceFn& reduce_fn_;
  const DataflowOptions& options_;
  const int map_tasks_;
  const int reduce_tasks_;
  const int max_attempts_;
  // The round's coordinator-side budget: every held segment in store_ and
  // in a worker's stage is charged here (declared before both, so it
  // outlives them).
  MemoryBudget budget_;

  std::vector<Worker> workers_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  // store_[map task][reducer] -> committed segments, runs-then-tail per task.
  std::vector<std::vector<std::vector<StoredSegment>>> store_{
      static_cast<size_t>(map_tasks_)};
  // Raw metrics of each committed map task (a re-executed task replaces
  // its report) and the reduce tasks' spill counters.
  std::vector<DataflowMetrics> map_task_metrics_{
      static_cast<size_t>(map_tasks_)};
  DataflowMetrics reduce_task_metrics_;
  std::vector<std::vector<Record>> reduce_records_{
      static_cast<size_t>(reduce_tasks_)};
  uint64_t committed_shuffle_bytes_ = 0;

  // Failure-policy state.
  const char* phase_ = "map";
  std::vector<TaskState> task_state_;
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_;
  uint64_t attempts_total_ = 0;
  uint64_t retries_total_ = 0;
  uint64_t kills_ = 0;
  uint64_t respawns_ = 0;
  uint64_t segment_chunks_ = 0;
  uint64_t parked_segments_ = 0;
  // Every pid the round ever forked (for the orphan spill sweep) and
  // replaced-but-unreaped pids awaiting waitpid.
  std::vector<pid_t> all_pids_;
  std::vector<std::pair<pid_t, bool>> graveyard_;
};

}  // namespace

RoundResult RunProcRound(size_t num_inputs, const MapFn& map_fn, bool combine,
                         const ReduceFn& reduce_fn,
                         const DataflowOptions& options) {
  Coordinator coordinator(num_inputs, map_fn, combine, reduce_fn, options);
  return coordinator.Run();
}

}  // namespace dseq
