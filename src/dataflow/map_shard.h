// The per-worker map-shard and reduce-column bodies of the dataflow engine,
// extracted so the local (in-process) backend and the proc backend's worker
// processes run the *same* code on both sides of the shuffle: sharding,
// partitioner resolution, shuffle-byte accounting, budget charging, bucket
// spilling and the one stable bucket sort on the map side; the k-way merge
// that fixes each key's value order on the reduce side. Sharing them by
// construction is what makes the proc backend's results and raw shuffle
// metrics byte-identical to the local engine's.
//
// Each shard counts into its own DataflowMetrics; RunMapReduce sums its
// shards' and the proc coordinator its tasks' with DataflowMetrics::
// Accumulate. Only the shuffle-budget counter is shared across the local
// backend's map workers, because the budget bounds their sum.
#ifndef DSEQ_DATAFLOW_MAP_SHARD_H_
#define DSEQ_DATAFLOW_MAP_SHARD_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/dataflow/engine.h"
#include "src/dataflow/shuffle_buffer.h"
#include "src/spill/external_merger.h"
#include "src/spill/memory_budget.h"
#include "src/spill/spill_file.h"

namespace dseq {

/// Everything one map worker's shard touches. All pointers are caller-owned
/// and must outlive the RunMapShard call; the per-reducer arrays (`buckets`,
/// `spill_runs`, `bucket_charged`) have one slot per reduce worker.
/// `spill_runs` and `bucket_charged` may be null when the budget is
/// disabled.
struct MapShardContext {
  const DataflowOptions* options = nullptr;
  int map_worker = 0;  // worker index locally, task index in the proc backend
  int reduce_workers = 1;
  size_t begin = 0;  // input shard [begin, end)
  size_t end = 0;
  const MapFn* map_fn = nullptr;
  /// Run the shard's records through a Combiner (src/dataflow/combiner.h)
  /// built from `options`, `budget`, `spill_stats` and `map_worker`.
  bool combine = false;

  ShuffleBuffer* buckets = nullptr;
  std::vector<SpillFile>* spill_runs = nullptr;
  uint64_t* bucket_charged = nullptr;
  MemoryBudget* budget = nullptr;
  SpillStats* spill_stats = nullptr;

  /// Shuffle bytes buffered so far, checked against the shuffle budget:
  /// shared by all map workers in the local backend, the task's own in a
  /// proc worker.
  std::atomic<uint64_t>* shuffle_bytes = nullptr;
  /// The shard's own counters, overwritten by RunMapShard: the record and
  /// byte counts, reducer_bytes (one slot per reduce worker) and input_*.
  /// Spill counters go to `spill_stats`.
  DataflowMetrics* metrics = nullptr;

  /// Optional hook called after each processed input: a proc worker's
  /// heartbeat tick (src/rpc/proc_backend.cc) while its stall timeout is
  /// on. Local rounds, and proc rounds without a timeout, leave it empty.
  std::function<void()> on_input;
};

/// Runs one map shard: maps each input of [begin, end), combines, and
/// leaves the shard's post-combine records in `buckets`, each stable-sorted
/// by key (ShuffleBuffer::SortByKey) and then compressed or sealed per the
/// options, and any spilled sorted runs in `spill_runs`. Throws
/// ShuffleOverflowError when a budget is exceeded.
void RunMapShard(const MapShardContext& ctx);

/// One map task's share of a reduce column: its spilled sorted runs (oldest
/// first), then its resident tail as raw ShuffleBuffer frames (ReleaseRaw
/// form), already sorted by key when the map side sealed the bucket.
struct ReduceColumnSource {
  std::vector<SpillFile> runs;
  std::string tail;
};

/// Reduces one column: calls `reduce_group` once per distinct key, keys
/// ascending, values in (source, emit) order. `sources` must be in map-task
/// order — that order is the stability contract of both backends. Every
/// run and tail is one sorted source of one ExternalMergePlan; nothing is
/// sorted here. A column holding a spilled run may collapse through
/// intermediate runs under options.spill_dir (read buffers charged to
/// `budget`, passes counted in `spill_stats`); a column of tails alone
/// merges in memory, writes no file and counts no pass. Consumes the runs,
/// deleting their files.
void RunReduceColumn(std::vector<ReduceColumnSource> sources,
                     const DataflowOptions& options, SpillStats* spill_stats,
                     MemoryBudget* budget, const MergeGroupFn& reduce_group);

}  // namespace dseq

#endif  // DSEQ_DATAFLOW_MAP_SHARD_H_
