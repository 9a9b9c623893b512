#include "src/dataflow/engine.h"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <utility>

#include "src/dataflow/map_shard.h"
#include "src/dataflow/shuffle_buffer.h"
#include "src/obs/trace.h"
#include "src/rpc/proc_backend.h"
#include "src/spill/memory_budget.h"
#include "src/spill/spill_file.h"
#include "src/util/check.h"
#include "src/util/thread_pool.h"

namespace dseq {

int ShuffleReducerForKey(std::string_view key, int num_reduce_workers) {
  return static_cast<int>(std::hash<std::string_view>{}(key) %
                          static_cast<size_t>(ClampWorkers(num_reduce_workers)));
}

void DataflowMetrics::Accumulate(const DataflowMetrics& other) {
  map_seconds += other.map_seconds;
  reduce_seconds += other.reduce_seconds;
  shuffle_bytes += other.shuffle_bytes;
  shuffle_compressed_bytes += other.shuffle_compressed_bytes;
  shuffle_records += other.shuffle_records;
  map_output_records += other.map_output_records;
  if (other.reducer_bytes.size() > reducer_bytes.size()) {
    reducer_bytes.resize(other.reducer_bytes.size(), 0);
  }
  for (size_t r = 0; r < other.reducer_bytes.size(); ++r) {
    reducer_bytes[r] += other.reducer_bytes[r];
  }
  spill_files += other.spill_files;
  spill_bytes_written += other.spill_bytes_written;
  spill_merge_passes += other.spill_merge_passes;
  proc_task_attempts += other.proc_task_attempts;
  proc_task_retries += other.proc_task_retries;
  proc_worker_kills += other.proc_worker_kills;
  proc_workers_respawned += other.proc_workers_respawned;
  proc_segment_chunks += other.proc_segment_chunks;
  proc_parked_segments += other.proc_parked_segments;
}

namespace {

// Runs `fn(worker)` for workers 0..n-1 under the configured execution mode
// and returns the phase duration: wall time for threads, the critical path
// (max per-worker busy time) for the cluster simulation.
double RunPhase(int num_workers, Execution execution,
                const std::function<void(int)>& fn) {
  if (execution == Execution::kSimulated) {
    double critical_path = 0.0;
    for (int w = 0; w < num_workers; ++w) {
      auto start = obs::Now();
      fn(w);
      critical_path = std::max(critical_path, obs::SecondsSince(start));
    }
    return critical_path;
  }
  auto start = obs::Now();
  ParallelWorkers(num_workers, fn);
  return obs::SecondsSince(start);
}

}  // namespace

RoundResult RunMapReduce(size_t num_inputs, const MapFn& map_fn, bool combine,
                         const ReduceFn& reduce_fn,
                         const DataflowOptions& options) {
  obs::SetCurrentRound(options.round_index);
  if (options.backend == DataflowBackend::kProc) {
    return RunProcRound(num_inputs, map_fn, combine, reduce_fn, options);
  }
  RoundResult result;
  DataflowMetrics& metrics = result.metrics;
  int map_workers = ClampWorkers(options.num_map_workers);
  int reduce_workers = ClampWorkers(options.num_reduce_workers);

  // buckets[map_worker][reduce_worker] -> one byte arena of varint-framed
  // records destined for that reducer.
  std::vector<std::vector<ShuffleBuffer>> buckets(map_workers);
  for (auto& row : buckets) row.resize(reduce_workers);
  // The shuffle-budget counter is shared by all map workers (the budget
  // bounds their sum); every other map-side counter is per shard, summed
  // after the phase.
  std::atomic<uint64_t> shuffle_bytes{0};
  std::vector<DataflowMetrics> shard_metrics(map_workers);

  // Out-of-core state: the shared budget, the spill counters, the sorted
  // runs spilled per bucket (chronological), and the bytes each resident
  // bucket has charged. All locals, so a failed round unwinds through the
  // SpillFile destructors and leaves the spill directory empty.
  MemoryBudget budget(options.memory_budget_bytes);
  const bool spill_enabled = budget.enabled() && !options.spill_dir.empty();
  SpillStats spill_stats;
  std::vector<std::vector<std::vector<SpillFile>>> spill_runs(map_workers);
  std::vector<std::vector<uint64_t>> bucket_charged(
      map_workers, std::vector<uint64_t>(reduce_workers, 0));
  if (budget.enabled()) {
    for (auto& runs : spill_runs) runs.resize(reduce_workers);
  }

  size_t shard = (num_inputs + map_workers - 1) / map_workers;
  metrics.map_seconds = RunPhase(map_workers, options.execution, [&](int w) {
    DSEQ_TRACE_SPAN("engine", "map_shard");
    // The shard body lives in map_shard.cc, shared verbatim with the proc
    // backend's worker processes — that sharing is the byte-identity
    // contract between the two backends.
    MapShardContext ctx;
    ctx.options = &options;
    ctx.map_worker = w;
    ctx.reduce_workers = reduce_workers;
    ctx.begin = std::min(num_inputs, static_cast<size_t>(w) * shard);
    ctx.end = std::min(num_inputs, ctx.begin + shard);
    ctx.map_fn = &map_fn;
    ctx.combine = combine;
    ctx.buckets = buckets[w].data();
    ctx.spill_runs = budget.enabled() ? spill_runs[w].data() : nullptr;
    ctx.bucket_charged = bucket_charged[w].data();
    ctx.budget = &budget;
    ctx.spill_stats = &spill_stats;
    ctx.shuffle_bytes = &shuffle_bytes;
    ctx.metrics = &shard_metrics[w];
    RunMapShard(ctx);
  });
  // The map workers that wrote the shard metrics were joined in RunPhase.
  for (const DataflowMetrics& m : shard_metrics) metrics.Accumulate(m);

  // One output buffer and one emitter per reduce worker, built up front: the
  // reduce loop runs once per distinct key and must not pay a std::function
  // allocation each time.
  std::vector<std::vector<Record>> out(reduce_workers);
  std::vector<EmitFn> emitters;
  emitters.reserve(reduce_workers);
  for (int r = 0; r < reduce_workers; ++r) {
    emitters.push_back([&out, r](std::string_view k, std::string_view v) {
      // Output records outlive the round, so the views are copied here.
      out[r].push_back(Record{std::string(k), std::string(v)});
    });
  }

  // Reduce: each reduce worker takes ownership of the bucket column hashed
  // to it — per map worker, the spilled runs and the resident tail — and
  // hands it to RunReduceColumn, the body shared with the proc backend's
  // reduce workers. The drained arenas die with the worker, so the
  // shuffle's memory is freed worker by worker, not at the end of the phase.
  metrics.reduce_seconds =
      RunPhase(reduce_workers, options.execution, [&](int r) {
        DSEQ_TRACE_SPAN("engine", "reduce_shard");
        // The column's residency now belongs to this worker and dies with
        // it; hand the charges back to the budget up front.
        if (budget.enabled()) {
          for (int w = 0; w < map_workers; ++w) {
            budget.Release(bucket_charged[w][r]);
            bucket_charged[w][r] = 0;
          }
        }
        std::vector<ReduceColumnSource> sources(map_workers);
        for (int w = 0; w < map_workers; ++w) {
          if (spill_enabled) sources[w].runs.swap(spill_runs[w][r]);
          sources[w].tail = buckets[w][r].ReleaseRaw();
        }
        RunReduceColumn(
            std::move(sources), options, &spill_stats, &budget,
            [&](std::string_view key, std::vector<std::string_view>& values) {
              reduce_fn(r, key, values, emitters[r]);
            });
      });
  // Relaxed: both phases' workers are joined by the time the stats are read.
  metrics.spill_files = spill_stats.files.load(std::memory_order_relaxed);
  metrics.spill_bytes_written =
      spill_stats.bytes_written.load(std::memory_order_relaxed);
  metrics.spill_merge_passes =
      spill_stats.merge_passes.load(std::memory_order_relaxed);
  // Round teardown: every bucket must have been drained by its reduce
  // worker (its live-gauge contribution is then zero — the per-round form
  // of the ShuffleBufferLiveBytes()==0 contract the RAII tests assert), its
  // budget charge handed back, and every spilled run consumed by a merge.
  for (int w = 0; w < map_workers; ++w) {
    for (int r = 0; r < reduce_workers; ++r) {
      DSEQ_DCHECK_MSG(buckets[w][r].data_bytes() == 0,
                      "shuffle bucket not drained at round teardown");
      if (budget.enabled()) {
        DSEQ_DCHECK_MSG(bucket_charged[w][r] == 0,
                        "bucket budget charge not released at round teardown");
        DSEQ_DCHECK_MSG(spill_runs[w][r].empty(),
                        "spilled run not consumed at round teardown");
      }
    }
  }
  size_t total = 0;
  for (const auto& records : out) total += records.size();
  result.records.reserve(total);
  for (auto& records : out) {
    result.records.insert(result.records.end(),
                          std::make_move_iterator(records.begin()),
                          std::make_move_iterator(records.end()));
  }
  return result;
}

}  // namespace dseq
