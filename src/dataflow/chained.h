// Chained multi-round dataflow on top of the single-round engine.
//
// The paper's substrate (Spark) runs iterative jobs as chains of shuffle
// rounds; this is the analogue. A DataflowJob strings together RunMapReduce
// rounds, on either backend, such that each round's output records become
// the next round's map input. Records cross the round boundary only in
// serialized form (a Record is a key/value byte-string pair), so the shuffle
// accounting of every round stays honest — there is no way to smuggle
// deserialized state from one round into the next.
//
// Metrics are collected per round (the paper's per-stage `shuffleWriteBytes`)
// and as an aggregate. Every round runs under the same DataflowOptions, so
// DataflowOptions::shuffle_budget_bytes bounds each round on its own and
// throws ShuffleOverflowError mid-round, exactly when the offending record is
// buffered.
#ifndef DSEQ_DATAFLOW_CHAINED_H_
#define DSEQ_DATAFLOW_CHAINED_H_

#include <cstddef>
#include <vector>

#include "src/dataflow/engine.h"

namespace dseq {

/// A chain of map-shuffle-reduce rounds with shared options and metrics.
///
/// Usage: every round is a RunRound. After a round the driver takes its
/// output with TakeRecords(): to decode a result (RunDistributedMining), or
/// to feed records to the next round's map by index (MineDSeqBalanced's
/// reconcile round).
///
/// After a ShuffleOverflowError the job is dead: per-round metrics cover
/// only completed rounds and the boundary records are unspecified.
class DataflowJob {
 public:
  explicit DataflowJob(const DataflowOptions& options) : options_(options) {}

  /// Runs a round whose map input is external: `map_fn` is called once per
  /// index in [0, num_inputs). `combine` as in RunMapReduce. Returns the
  /// round's metrics; its output records wait for TakeRecords().
  const DataflowMetrics& RunRound(size_t num_inputs, const MapFn& map_fn,
                                  bool combine, const ReduceFn& reduce_fn);

  /// Moves out the output records of the last completed round
  /// (RoundResult::records), leaving none behind.
  std::vector<Record> TakeRecords() {
    std::vector<Record> out = std::move(records_);
    records_.clear();
    return out;
  }

  size_t num_rounds() const { return round_metrics_.size(); }
  const std::vector<DataflowMetrics>& round_metrics() const {
    return round_metrics_;
  }

  /// Field-wise sum of the per-round metrics. aggregate_metrics().shuffle_bytes
  /// is the chain's cumulative shuffle volume.
  DataflowMetrics aggregate_metrics() const;

 private:
  DataflowOptions options_;
  std::vector<Record> records_;
  std::vector<DataflowMetrics> round_metrics_;
};

}  // namespace dseq

#endif  // DSEQ_DATAFLOW_CHAINED_H_
