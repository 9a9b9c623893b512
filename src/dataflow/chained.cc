#include "src/dataflow/chained.h"

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
  RoundResult result =
      RunMapReduce(num_inputs, map_fn, combine, reduce_fn, round_options);
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
