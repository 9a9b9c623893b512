#include "src/dist/partition_stats.h"

#include <algorithm>
#include <map>

#include "src/core/grid.h"
#include "src/dist/dseq_miner.h"
#include "src/util/thread_pool.h"

namespace dseq {

std::vector<PartitionStats> ComputePartitionStats(
    const std::vector<Sequence>& db, const StepTable& table,
    int num_workers) {
  int workers = ClampWorkers(num_workers);
  std::vector<std::map<ItemId, PartitionStats>> per_worker(workers);
  ParallelShards(db.size(), workers, [&](int w, size_t begin, size_t end) {
    std::map<ItemId, PartitionStats>& local = per_worker[w];
    std::string value;
    for (size_t i = begin; i < end; ++i) {
      const Sequence& T = db[i];
      StateGrid grid = StateGrid::Build(T, table);
      if (!grid.HasAcceptingRun()) continue;
      PivotRewriter rewriter(T, grid);
      for (ItemId k : rewriter.pivots()) {
        value.clear();
        PutSequence(&value, rewriter.Rewrite(k));
        PartitionStats& stats = local[k];
        stats.pivot = k;
        stats.num_sequences += 1;
        stats.total_bytes += EncodePivotKey(k).size() + value.size() +
                             kShuffleRecordOverheadBytes;
      }
    }
  });

  std::map<ItemId, PartitionStats> merged;
  for (const auto& local : per_worker) {
    for (const auto& [pivot, stats] : local) {
      PartitionStats& out = merged[pivot];
      out.pivot = pivot;
      out.num_sequences += stats.num_sequences;
      out.total_bytes += stats.total_bytes;
    }
  }

  std::vector<PartitionStats> result;
  result.reserve(merged.size());
  for (auto& [pivot, stats] : merged) result.push_back(stats);
  return result;
}

namespace {

// Fills the per-reducer fields of `summary` from per-reducer volumes.
void FillReducerView(const std::vector<uint64_t>& reducer_bytes,
                     BalanceSummary* summary) {
  summary->num_reducers = static_cast<int>(reducer_bytes.size());
  if (reducer_bytes.empty()) return;
  uint64_t total = 0;
  uint64_t largest = 0;
  for (uint64_t b : reducer_bytes) {
    total += b;
    largest = std::max(largest, b);
  }
  summary->max_reducer_bytes = largest;
  if (total == 0) return;
  double mean = static_cast<double>(total) / reducer_bytes.size();
  summary->max_to_mean_reducer_bytes = largest / mean;
  summary->largest_reducer_share = static_cast<double>(largest) / total;
}

}  // namespace

BalanceSummary SummarizeBalance(const std::vector<PartitionStats>& stats,
                                int num_reducers) {
  BalanceSummary summary;
  summary.num_partitions = stats.size();
  uint64_t largest = 0;
  for (const PartitionStats& p : stats) {
    summary.total_bytes += p.total_bytes;
    largest = std::max(largest, p.total_bytes);
  }
  if (num_reducers > 0) {
    // Replay the engine's hash assignment over the configured reducer
    // count; reducers no pivot hashes to stay at zero and still count.
    std::vector<uint64_t> reducer_bytes(num_reducers, 0);
    for (const PartitionStats& p : stats) {
      reducer_bytes[ShuffleReducerForKey(EncodePivotKey(p.pivot),
                                         num_reducers)] += p.total_bytes;
    }
    FillReducerView(reducer_bytes, &summary);
  }
  if (stats.empty() || summary.total_bytes == 0) return summary;
  double mean =
      static_cast<double>(summary.total_bytes) / summary.num_partitions;
  summary.max_to_mean_bytes = largest / mean;
  summary.largest_share =
      static_cast<double>(largest) / summary.total_bytes;
  return summary;
}

BalanceSummary SummarizeReducerBytes(
    const std::vector<uint64_t>& reducer_bytes) {
  BalanceSummary summary;
  FillReducerView(reducer_bytes, &summary);
  for (uint64_t b : reducer_bytes) summary.total_bytes += b;
  return summary;
}

}  // namespace dseq
