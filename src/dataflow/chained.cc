#include "src/dataflow/chained.h"

#include <algorithm>
#include <utility>

#include "src/obs/trace.h"

namespace dseq {

const DataflowMetrics& DataflowJob::RunRound(size_t num_inputs,
                                             const MapFn& map_fn, bool combine,
                                             const ReduceFn& reduce_fn) {
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

  RoundResult result =
      RunMapReduce(num_inputs, map_fn, combine, reduce_fn, round_options);
  cumulative_shuffle_bytes_ += result.metrics.shuffle_bytes;
  records_ = std::move(result.records);
  round_metrics_.push_back(std::move(result.metrics));
  return round_metrics_.back();
}

DataflowMetrics DataflowJob::aggregate_metrics() const {
  DataflowMetrics total;
  for (const DataflowMetrics& m : round_metrics_) total.Accumulate(m);
  return total;
}

}  // namespace dseq
