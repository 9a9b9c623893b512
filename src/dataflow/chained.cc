#include "src/dataflow/chained.h"

#include <algorithm>
#include <iterator>

#include "src/obs/trace.h"
#include "src/rpc/proc_backend.h"
#include "src/util/thread_pool.h"

namespace dseq {

const DataflowMetrics& DataflowJob::Run(size_t num_inputs, const MapFn& map_fn,
                                        bool combine,
                                        const ChainReduceFn& reduce_fn) {
  DataflowOptions round_options = options_;
  // Stamp the 0-based round index so budget-overflow errors (and spill
  // diagnostics) can name the round that tripped.
  round_options.round_index = static_cast<int>(round_metrics_.size());
  obs::SetCurrentRound(round_options.round_index);
  DSEQ_TRACE_SPAN("driver", "round");
  if (options_.cumulative_shuffle_budget_bytes > 0) {
    // The engine throws once a round shuffles more than its per-round budget,
    // so the cumulative budget becomes a per-round budget of whatever is left
    // of it. An exhausted cumulative budget must still fail on the first
    // record of the next round; budget 0 means "unlimited" to the engine, so
    // clamp the remainder to one byte (every record is larger).
    uint64_t remaining =
        options_.cumulative_shuffle_budget_bytes > cumulative_shuffle_bytes_
            ? options_.cumulative_shuffle_budget_bytes -
                  cumulative_shuffle_bytes_
            : 1;
    round_options.shuffle_budget_bytes =
        options_.shuffle_budget_bytes == 0
            ? remaining
            : std::min(options_.shuffle_budget_bytes, remaining);
  }

  if (options_.backend == DataflowBackend::kProc) {
    // Multi-process round: forked workers run the map shards and reduce
    // columns, the boundary records come back over the wire already in
    // reduce-task order — the same flattening the local path produces below.
    // RunMapReduce rejects kProc, so the dispatch lives here, where the
    // chain-level budgets and round indices have already been resolved.
    round_options.backend = DataflowBackend::kLocal;  // workers run locally
    ProcRoundResult result =
        RunProcRound(num_inputs, map_fn, combine, reduce_fn, round_options);
    cumulative_shuffle_bytes_ += result.metrics.shuffle_bytes;
    records_ = std::move(result.records);
    round_metrics_.push_back(std::move(result.metrics));
    return round_metrics_.back();
  }

  int reduce_workers = ClampWorkers(options_.num_reduce_workers);
  std::vector<std::vector<Record>> out(reduce_workers);
  // One emitter per reduce worker, built up front: the reduce loop runs once
  // per distinct key and must not pay a std::function allocation each time.
  std::vector<EmitFn> emitters;
  emitters.reserve(reduce_workers);
  for (int w = 0; w < reduce_workers; ++w) {
    emitters.push_back([&out, w](std::string_view k, std::string_view v) {
      // Boundary records outlive the round, so the views are copied here.
      out[w].push_back(Record{std::string(k), std::string(v)});
    });
  }
  ReduceFn wrapped_reduce = [&](int worker, std::string_view key,
                                std::vector<std::string_view>& values) {
    reduce_fn(worker, key, values, emitters[worker]);
  };

  DataflowMetrics metrics = RunMapReduce(num_inputs, map_fn, combine,
                                         wrapped_reduce, round_options);
  cumulative_shuffle_bytes_ += metrics.shuffle_bytes;

  records_.clear();
  size_t total = 0;
  for (const auto& worker_records : out) total += worker_records.size();
  records_.reserve(total);
  for (auto& worker_records : out) {
    records_.insert(records_.end(),
                    std::make_move_iterator(worker_records.begin()),
                    std::make_move_iterator(worker_records.end()));
  }
  round_metrics_.push_back(metrics);
  return round_metrics_.back();
}

const DataflowMetrics& DataflowJob::RunRound(size_t num_inputs,
                                             const MapFn& map_fn, bool combine,
                                             const ChainReduceFn& reduce_fn) {
  return Run(num_inputs, map_fn, combine, reduce_fn);
}

const DataflowMetrics& DataflowJob::RunChainedRound(
    const RecordMapFn& map_fn, bool combine, const ChainReduceFn& reduce_fn) {
  std::vector<Record> inputs = TakeRecords();
  MapFn wrapped_map = [&](size_t index, const EmitFn& emit) {
    map_fn(index, inputs[index], emit);
  };
  return Run(inputs.size(), wrapped_map, combine, reduce_fn);
}

DataflowMetrics DataflowJob::aggregate_metrics() const {
  DataflowMetrics total;
  for (const DataflowMetrics& m : round_metrics_) total.Accumulate(m);
  return total;
}

}  // namespace dseq
