// Partition statistics for item-based partitioning (paper Sec. III-B and
// Tab. IV discussion).
//
// Computes, per pivot partition P_k, how many (rewritten) sequences D-SEQ's
// map phase would send there and how many serialized bytes they occupy, and
// summarizes the balance of the resulting partitioning. The paper's
// frequency-based item order assigns the least data to the most frequent
// items, which is what keeps item-based partitioning balanced.
#ifndef DSEQ_DIST_PARTITION_STATS_H_
#define DSEQ_DIST_PARTITION_STATS_H_

#include <cstdint>
#include <vector>

#include "src/core/grid.h"
#include "src/dict/dictionary.h"
#include "src/dist/distributed.h"
#include "src/fst/fst.h"

namespace dseq {

/// Shuffle volume of one pivot partition under D-SEQ partitioning.
struct PartitionStats {
  ItemId pivot = kNoItem;
  uint64_t num_sequences = 0;  // (rewritten) input sequences sent to P_pivot
  /// Shuffle bytes of those sequences under the engine's accounting (key +
  /// value + kShuffleRecordOverheadBytes per record), so partition plans
  /// packed from these stats project the loads the run will measure.
  uint64_t total_bytes = 0;
};

/// Computes the per-partition statistics of D-SEQ's map output for `db`
/// under the job's step `table` (grid σ-pruning at the table's σ +
/// rewriting, exactly what MineDSeq ships). Result is sorted by pivot
/// ascending; partitions that receive no data are omitted. Deterministic
/// for any `num_workers`.
///
/// The stats model the *uncombined* shuffle: with
/// DSeqOptions::aggregate_sequences the run additionally prepends a weight
/// varint per record and merges identical rewritten sequences per map
/// worker, so measured per-reducer bytes come in at or below these numbers
/// (pre-combine volume is still the right packing signal — it bounds what
/// any worker sharding can ship).
std::vector<PartitionStats> ComputePartitionStats(
    const std::vector<Sequence>& db, const StepTable& table,
    int num_workers = 1);

/// Aggregate balance measures over a partitioning. Two views:
///  * per pivot: over the pivots that received data (the historical view);
///  * per reducer: against the *configured* reducer count, so reducers that
///    received nothing count — on a sparse run, 3 equal pivots on 8
///    reducers is a max/mean of 8/3, not 1.
struct BalanceSummary {
  size_t num_partitions = 0;
  uint64_t total_bytes = 0;
  double max_to_mean_bytes = 0.0;  // largest partition / mean partition
  double largest_share = 0.0;      // largest partition / total

  // Per-reducer view; only filled when a reducer count is known (the
  // two-argument SummarizeBalance or SummarizeReducerBytes).
  int num_reducers = 0;
  uint64_t max_reducer_bytes = 0;
  double max_to_mean_reducer_bytes = 0.0;  // largest reducer / (total / R)
  double largest_reducer_share = 0.0;      // largest reducer / total
};

/// Summarizes the per-pivot balance of `stats`; with `num_reducers` > 0 also
/// the per-reducer view under the engine's hash partitioner
/// (ShuffleReducerForKey over EncodePivotKey), empty reducers included.
BalanceSummary SummarizeBalance(const std::vector<PartitionStats>& stats,
                                int num_reducers = 0);

/// Per-reducer balance of measured shuffle volumes (one entry per reducer,
/// e.g. DataflowMetrics::reducer_bytes). Fills only the per-reducer fields
/// and total_bytes.
BalanceSummary SummarizeReducerBytes(const std::vector<uint64_t>& reducer_bytes);

}  // namespace dseq

#endif  // DSEQ_DIST_PARTITION_STATS_H_
