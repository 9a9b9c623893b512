// Plan-driven repartitioning of pivot partitions (paper Sec. III-B turned
// into action).
//
// ComputePartitionStats measures how many serialized bytes each pivot
// partition would receive; this layer turns that measurement into a
// PartitionPlan that steers the next round's physical layout:
//
//  * pack    — pivots are placed onto reducers with greedy LPT bin packing
//              by measured bytes (largest partition first, always onto the
//              least-loaded reducer), instead of by hash;
//  * bundle  — many light pivots end up sharing one reducer slot, so sparse
//              tails no longer scatter across (and idle) reducers;
//  * split   — a heavy pivot whose partition exceeds its fair share is
//              range-split over the input index space into K sub-partitions
//              that are mined independently and reconciled in one extra
//              chained round (the split defers the support threshold, so the
//              reconciled output is byte-identical to the unsplit run).
//
// The plan is wired into the engine through DataflowOptions::partitioner
// (see MakePartitioner); keys the plan does not know fall back to the
// engine's hash assignment, so a plan is always safe to install.
#ifndef DSEQ_DIST_PARTITION_PLAN_H_
#define DSEQ_DIST_PARTITION_PLAN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/dist/partition_stats.h"

namespace dseq {

struct PartitionPlanOptions {
  /// Reducer count the plan packs for (the run's num_reduce_workers).
  int num_reducers = 1;
  /// A pivot whose measured bytes exceed split_factor × the mean reducer
  /// load (total bytes / num_reducers) is split into enough sub-partitions
  /// to bring each below that threshold (at most num_reducers of them).
  /// 1.0 splits anything above its fair share; larger values split only
  /// ever heavier pivots.
  double split_factor = 1.0;
};

/// A heavy pivot's range split: sub-partition `s` owns the input sequences
/// whose global index falls into the s-th of num_subpartitions() equal index
/// ranges, and ships to reducers[s].
struct PivotSplit {
  ItemId pivot = kNoItem;
  uint64_t bytes = 0;          // measured partition volume the split divides
  std::vector<int> reducers;   // reducer of each sub-partition, size >= 2

  int num_subpartitions() const { return static_cast<int>(reducers.size()); }
};

/// The computed placement: every pivot seen in the stats is either assigned
/// to one reducer (packed/bundled) or split. Pivots the plan has never seen
/// fall back to hash partitioning.
struct PartitionPlan {
  int num_reducers = 1;
  /// Size of the global input index space the range splits divide.
  size_t num_inputs = 0;
  /// Unsplit pivots → reducer, sorted by pivot (binary-searchable).
  std::vector<std::pair<ItemId, int>> assignments;
  /// Split pivots, sorted by pivot.
  std::vector<PivotSplit> splits;
  /// Projected per-reducer load under this plan (from the measured stats;
  /// split pivots contribute bytes / K per sub-partition).
  std::vector<uint64_t> planned_reducer_bytes;

  /// The split entry for `pivot`, or nullptr if the pivot is not split.
  const PivotSplit* FindSplit(ItemId pivot) const;

  /// Sub-partition of input sequence `input_index` within `split` (the
  /// range split over [0, num_inputs)).
  int SubpartitionForIndex(const PivotSplit& split, size_t input_index) const;

  /// Reducer for a shuffle key: planned placement for known pivot keys and
  /// sub-partition keys, the engine's hash assignment for everything else.
  int ReducerForKey(std::string_view key) const;

  /// Packages the plan as an engine partitioner (copies the plan into the
  /// closure). Falls back to pure hashing when invoked with a reducer count
  /// other than num_reducers, so a stale plan degrades to the status quo
  /// instead of misrouting.
  PartitionerFn MakePartitioner() const;
};

/// Builds the plan for `stats` (ComputePartitionStats output) over a
/// database of `num_inputs` sequences. Deterministic. With empty stats (or
/// zero measured bytes) the plan is empty and behaves exactly like hash
/// partitioning.
PartitionPlan BuildPartitionPlan(const std::vector<PartitionStats>& stats,
                                 size_t num_inputs,
                                 const PartitionPlanOptions& options);

/// Key of sub-partition `subpartition` of a split pivot: varint(pivot)
/// followed by varint(subpartition). Unsplit partitions keep the plain
/// EncodePivotKey coding.
std::string EncodeSubpartitionKey(ItemId pivot, int subpartition);

/// Decodes EncodePivotKey / EncodeSubpartitionKey keys
/// (TryDecodePivotKeyParts). Throws std::invalid_argument on malformed
/// keys.
PivotKeyParts DecodePivotKeyParts(std::string_view key);

/// Balance summary of the plan's projected per-reducer loads (the planning
/// counterpart of SummarizeReducerBytes over measured volumes).
BalanceSummary SummarizePlannedBalance(const PartitionPlan& plan);

}  // namespace dseq

#endif  // DSEQ_DIST_PARTITION_PLAN_H_
