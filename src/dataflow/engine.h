// Bulk-synchronous-parallel dataflow engine (paper Sec. III).
//
// Replaces the paper's Spark/MapReduce substrate. One RunMapReduce call is
// one round of communication, exactly as Alg. 1:
//
//   map     : process each input independently, emit (key, value) records
//   combine : optional per-map-worker aggregation: the weights of identical
//             (key, payload) records are summed (src/dataflow/combiner.h)
//   shuffle : records are serialized, partitioned by hash(key) among reduce
//             workers; total serialized bytes are the shuffle-size metric
//             (the paper's `shuffleWriteBytes`)
//   reduce  : each key's values are processed by exactly one reduce worker,
//             which may emit output records; the round returns them
//
// The round runs on one of two backends (DataflowBackend): threads in this
// process, or forked worker processes exchanging the shuffle over loopback
// TCP (src/rpc/proc_backend.h). Both run the same map-shard and
// reduce-column bodies (src/dataflow/map_shard.h), so results and raw
// shuffle metrics are identical.
//
// Zero-copy hot path: each (map worker, reduce worker) bucket is one
// contiguous varint-framed byte arena (ShuffleBuffer) — no per-record heap
// allocations. The combiner aggregates into an open-addressing table whose
// records are views into an interning arena. Each map worker stable-sorts
// every bucket by key once, when it seals it; the reduce phase k-way merges
// its column's sorted buckets (and any spilled runs) into key groups, so
// nothing is sorted twice. Keys and values reach the reduce function in
// (map worker, emit) order within a key; the shuffle buffers are released
// per reduce worker as soon as that worker finishes (not at the end of the
// phase).
//
// Values cross the phase boundary only in serialized form, so shuffle sizes
// are honest and algorithms must implement real (de)serialization. With
// DataflowOptions::compress_shuffle the buckets are additionally run
// through the block codec (src/util/block_codec.h) at the end of the map
// phase, like Spark's shuffle compression; `shuffle_bytes` keeps measuring
// the raw serialized volume (so budgets and cross-run comparisons are
// unaffected) and `shuffle_compressed_bytes` reports what actually crossed
// the simulated network.
//
// A configurable shuffle budget emulates the paper's out-of-memory failures
// (Spark failing to spill shuffle data): exceeding the budget throws
// ShuffleOverflowError, which benches report as "n/a (OOM)".
//
// Out-of-core execution (src/spill/): with memory_budget_bytes set, the
// resident shuffle arenas and the combiner tables are charged against a
// shared MemoryBudget. When the budget runs out and spill_dir is set, the
// overflowing worker drains its buckets (and its combiner its table) to
// sorted runs on disk; the reduce phase adds the runs to the same k-way
// merge as the resident buckets, so reducers stream key groups without ever
// rebuilding the column in memory. Results and the raw shuffle metrics are
// identical to the in-memory run; DataflowMetrics::spill_* report the
// out-of-core volume. Without spill_dir the budget is a hard ceiling that
// throws an actionable ShuffleOverflowError.
#ifndef DSEQ_DATAFLOW_ENGINE_H_
#define DSEQ_DATAFLOW_ENGINE_H_

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace dseq {

/// Thrown when buffered shuffle state exceeds a configured budget — the raw
/// shuffle-volume budget (shuffle_budget_bytes) or the resident memory
/// budget (memory_budget_bytes) when spilling is disabled. The message
/// names the round, the offending reducer bucket or combiner, and the
/// configured vs. attempted bytes.
class ShuffleOverflowError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Wall-clock and volume metrics of one map-shuffle-reduce round.
struct DataflowMetrics {
  double map_seconds = 0.0;     // map + combine + serialize (+ compress)
  double reduce_seconds = 0.0;  // (decompress +) deserialize + local mining
  uint64_t shuffle_bytes = 0;   // post-combine raw serialized volume
  /// Post-codec volume; 0 unless DataflowOptions::compress_shuffle is set.
  uint64_t shuffle_compressed_bytes = 0;
  uint64_t shuffle_records = 0;
  uint64_t map_output_records = 0;  // pre-combine record count
  /// Raw serialized bytes each reduce worker received (one entry per reduce
  /// worker, including workers that received nothing) — the measured side of
  /// the partition-balance work: max/mean over this vector is the skew the
  /// partition planner acts on.
  std::vector<uint64_t> reducer_bytes;
  /// Out-of-core counters (all 0 unless the round spilled): sorted runs
  /// written to spill_dir, stored bytes written to them (post-codec when
  /// compress_shuffle is set, block framing included), and k-way merge passes
  /// over spilled runs (intermediate fan-in collapses plus the final
  /// streaming merges — at least one whenever spill_files > 0).
  uint64_t spill_files = 0;
  uint64_t spill_bytes_written = 0;
  uint64_t spill_merge_passes = 0;
  /// Proc-backend failure-policy counters (all 0 under kLocal): task
  /// assignments (first tries + retries), reassignments after a worker
  /// death/stall, workers SIGKILLed by stall detection, and replacement
  /// workers forked after a death. Diagnostic only — never part of the
  /// local/proc raw-metric equivalence contract.
  uint64_t proc_task_attempts = 0;
  uint64_t proc_task_retries = 0;
  uint64_t proc_worker_kills = 0;
  uint64_t proc_workers_respawned = 0;
  /// Transport-shape counters (kLocal: 0): continuation frames used to chunk
  /// oversized segments against the frame cap, and committed segments (runs
  /// and tails) the coordinator parked in SpillFiles because its
  /// memory_budget_bytes was full.
  uint64_t proc_segment_chunks = 0;
  uint64_t proc_parked_segments = 0;

  double total_seconds() const { return map_seconds + reduce_seconds; }

  /// Adds `other` field by field (reducer_bytes element-wise, growing to
  /// the longer vector). The one way metrics are summed: map shards into a
  /// round, proc tasks into a round, rounds into a job's aggregate.
  void Accumulate(const DataflowMetrics& other);
};

/// How workers execute.
enum class Execution {
  /// One std::thread per worker (true parallelism on multi-core machines).
  kThreads,
  /// Cluster simulation for machines with fewer cores than workers: shards
  /// run sequentially, each worker's busy time is measured individually,
  /// and a phase's reported duration is the *critical path* — the maximum
  /// worker time, exactly what a perfectly synchronized BSP cluster would
  /// take. Work and results are identical to kThreads.
  kSimulated,
};

/// Where a round's map and reduce tasks execute.
enum class DataflowBackend {
  /// Threads (or the sequential simulation) inside this process — the
  /// default.
  kLocal,
  /// Real worker processes forked per round, exchanging shuffle segments
  /// over loopback TCP (src/rpc/proc_backend.h). Results and raw shuffle
  /// metrics are byte-identical to kLocal by construction: workers run the
  /// same RunMapShard and RunReduceColumn bodies, and the coordinator
  /// replays segments in the source order the local reduce phase uses.
  kProc,
};

/// Key→reducer assignment hook. Must be a pure function of the key (every
/// record of a key has to reach the same reducer) and return a value in
/// [0, num_reduce_workers); out-of-range results throw. Which reducer a key
/// lands on never affects results — only balance — so custom partitioners
/// (e.g. a PartitionPlan's) are correctness-neutral by construction.
using PartitionerFn =
    std::function<int(std::string_view key, int num_reduce_workers)>;

/// The engine's default assignment: hash partitioning. Exposed so planners
/// and balance summaries can reproduce exactly where a key would land.
int ShuffleReducerForKey(std::string_view key, int num_reduce_workers);

/// Fixed per-record framing overhead charged to the shuffle-size metric
/// (length prefixes, roughly what a real shuffle file format pays). Exposed
/// so ComputePartitionStats can mirror the engine's byte accounting exactly
/// — a partition plan packed from stats then projects the same loads the
/// run will measure.
inline constexpr uint64_t kShuffleRecordOverheadBytes = 4;

struct DataflowOptions {
  int num_map_workers = 1;
  int num_reduce_workers = 1;
  Execution execution = Execution::kThreads;
  /// 0 = unlimited. Otherwise the run throws ShuffleOverflowError once the
  /// buffered shuffle exceeds this many bytes (always charged on the raw
  /// serialized volume, independent of compress_shuffle).
  uint64_t shuffle_budget_bytes = 0;
  /// Block-compress each shuffle bucket after the map phase and report the
  /// compressed volume in DataflowMetrics::shuffle_compressed_bytes; spill
  /// runs are then block-compressed too. Results and `shuffle_bytes` are
  /// unaffected.
  bool compress_shuffle = false;
  /// Key→reducer override; null = ShuffleReducerForKey (hash partitioning).
  PartitionerFn partitioner;

  // --- out-of-core execution (src/spill/) ---------------------------------
  /// 0 = unlimited. Otherwise the resident shuffle arenas and the
  /// combiner tables share this many bytes; exceeding it spills
  /// to spill_dir, or throws ShuffleOverflowError when spill_dir is empty.
  /// Charged with the engine's record byte accounting (key + value +
  /// kShuffleRecordOverheadBytes), so results and raw shuffle metrics are
  /// identical with and without a budget. Under kProc every worker process
  /// and the coordinator each get the whole budget: the coordinator holds
  /// a committed segment in memory while it fits and parks it in a spill
  /// file otherwise (it never throws; without spill_dir it holds).
  uint64_t memory_budget_bytes = 0;
  /// Directory for spill files (must exist and be writable). Empty =
  /// spilling disabled; memory_budget_bytes then acts as a hard ceiling.
  std::string spill_dir;
  /// 0-based index of this round within a chained job. Purely diagnostic:
  /// it contextualizes ShuffleOverflowError messages (DataflowJob sets it).
  int round_index = 0;

  // --- multi-process execution (src/rpc/) ---------------------------------
  /// kProc runs the round's tasks in forked worker processes over a socket
  /// shuffle (see DataflowBackend).
  DataflowBackend backend = DataflowBackend::kLocal;
  /// Proc backend only: kill and reassign an in-flight worker that has made
  /// no progress for this long. "Progress" includes heartbeats: a worker's
  /// task thread sends kPong as its task advances, at most once per quarter
  /// of this timeout (clamped to [10ms, 1s]). The task advances once per
  /// map input, received segment and reduced key group, so a hung task goes
  /// silent and is killed — but so is one unit of work (one key group that
  /// mines, one map input) that runs longer than this timeout: set it above
  /// the slowest such unit (ROADMAP item S tracks beating from inside the
  /// miners). 0 disables the timeout and the heartbeats (worker loss is
  /// still detected via connection EOF and the task re-executed).
  int proc_worker_timeout_ms = 0;
  /// Proc backend only: how many times one task may be attempted before the
  /// round fails with ProcTaskFailedError naming the task, the attempt
  /// count, and the last failure. Transient failures (a killed or stalled
  /// worker) retry up to this bound on respawned or surviving workers;
  /// deterministic worker exceptions (kError frames) never retry. Clamped
  /// to >= 1.
  int proc_max_task_attempts = 3;
  /// Proc backend only: wall-clock ceiling for one round (map + reduce).
  /// Exceeding it throws ProcDeadlineError. 0 = no deadline.
  int proc_round_deadline_ms = 0;
};

/// One serialized output record of a reduce function: the round's result,
/// and in a chained job the next round's map input.
struct Record {
  std::string key;
  std::string value;

  bool operator==(const Record& o) const {
    return key == o.key && value == o.value;
  }
  bool operator<(const Record& o) const {
    if (key != o.key) return key < o.key;
    return value < o.value;
  }
};

/// Emits one record from a mapper, a combiner flush or a reduce function.
/// The engine copies the bytes during the call; views need not outlive it.
using EmitFn = std::function<void(std::string_view key, std::string_view value)>;

/// Map function: called once per input index; may emit any number of records.
using MapFn = std::function<void(size_t input_index, const EmitFn& emit)>;

/// Reduce function: called once per distinct key with all its values.
/// `worker` identifies the reduce worker (0 .. num_reduce_workers-1). Keys
/// arrive in ascending byte order per worker; `key` and the value views are
/// valid only during the call. The values vector is the caller's scratch
/// and may be reordered freely. Records passed to `emit` become the round's
/// output (RoundResult::records); emitting nothing is fine.
using ReduceFn = std::function<void(int worker, std::string_view key,
                                    std::vector<std::string_view>& values,
                                    const EmitFn& emit)>;

/// What one round produces: its metrics and the records the reduce
/// functions emitted, concatenated in reduce-worker order (per worker in
/// emission order) — deterministic for a fixed configuration, and the same
/// on both backends.
struct RoundResult {
  DataflowMetrics metrics;
  std::vector<Record> records;
};

/// Runs one BSP round on options.backend. The map phase is parallelized
/// over input shards, the reduce phase over key partitions. With `combine`,
/// each map worker sums its records' weights per (key, payload) before the
/// shuffle (Combiner, src/dataflow/combiner.h): every value must then be
/// varint(weight) + payload, and a count is a weight with an empty payload.
/// Throws ShuffleOverflowError if the budget is exceeded.
///
/// Under kProc the reduce function runs in a forked process, so only the
/// records it emits leave it: writes to captured state survive only on
/// kLocal. A round that must return data to its caller on both backends
/// emits it.
RoundResult RunMapReduce(size_t num_inputs, const MapFn& map_fn, bool combine,
                         const ReduceFn& reduce_fn,
                         const DataflowOptions& options);

}  // namespace dseq

#endif  // DSEQ_DATAFLOW_ENGINE_H_
