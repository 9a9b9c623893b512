#include "src/dist/partition_plan.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/dist/distributed.h"
#include "src/util/check.h"
#include "src/util/thread_pool.h"
#include "src/util/varint.h"

namespace dseq {

std::string EncodeSubpartitionKey(ItemId pivot, int subpartition) {
  std::string key = EncodePivotKey(pivot);
  PutVarint(&key, static_cast<uint64_t>(subpartition));
  return key;
}

PivotKeyParts DecodePivotKeyParts(std::string_view key) {
  PivotKeyParts parts;
  if (!TryDecodePivotKeyParts(key, &parts)) {
    throw std::invalid_argument("malformed pivot partition key");
  }
  return parts;
}

const PivotSplit* PartitionPlan::FindSplit(ItemId pivot) const {
  auto it = std::lower_bound(
      splits.begin(), splits.end(), pivot,
      [](const PivotSplit& s, ItemId p) { return s.pivot < p; });
  if (it == splits.end() || it->pivot != pivot) return nullptr;
  return &*it;
}

int PartitionPlan::SubpartitionForIndex(const PivotSplit& split,
                                        size_t input_index) const {
  if (num_inputs == 0) return 0;
  size_t k = static_cast<size_t>(split.num_subpartitions());
  size_t sub = input_index * k / num_inputs;
  return static_cast<int>(std::min(sub, k - 1));
}

int PartitionPlan::ReducerForKey(std::string_view key) const {
  PivotKeyParts parts;
  if (TryDecodePivotKeyParts(key, &parts)) {
    if (parts.subpartition < 0) {
      auto it = std::lower_bound(
          assignments.begin(), assignments.end(), parts.pivot,
          [](const std::pair<ItemId, int>& a, ItemId p) {
            return a.first < p;
          });
      if (it != assignments.end() && it->first == parts.pivot) {
        // Every planned index must be a real reducer — a plan deserialized
        // or mutated out of range would misroute whole partitions.
        DSEQ_DCHECK_MSG(it->second >= 0 && it->second < num_reducers,
                        "partition plan assigns a pivot to an out-of-range "
                        "reducer");
        return it->second;
      }
    } else {
      const PivotSplit* split = FindSplit(parts.pivot);
      if (split != nullptr &&
          parts.subpartition < split->num_subpartitions()) {
        int reducer = split->reducers[parts.subpartition];
        DSEQ_DCHECK_MSG(reducer >= 0 && reducer < num_reducers,
                        "partition plan assigns a sub-partition to an "
                        "out-of-range reducer");
        return reducer;
      }
    }
  }
  return ShuffleReducerForKey(key, num_reducers);
}

PartitionerFn PartitionPlan::MakePartitioner() const {
  return [plan = *this](std::string_view key, int num_reduce_workers) {
    if (num_reduce_workers != plan.num_reducers) {
      return ShuffleReducerForKey(key, num_reduce_workers);
    }
    return plan.ReducerForKey(key);
  };
}

PartitionPlan BuildPartitionPlan(const std::vector<PartitionStats>& stats,
                                 size_t num_inputs,
                                 const PartitionPlanOptions& options) {
  PartitionPlan plan;
  plan.num_reducers = ClampWorkers(options.num_reducers);
  plan.num_inputs = num_inputs;
  plan.planned_reducer_bytes.assign(plan.num_reducers, 0);

  uint64_t total_bytes = 0;
  for (const PartitionStats& p : stats) total_bytes += p.total_bytes;
  if (stats.empty() || total_bytes == 0) return plan;

  // A pivot heavier than split_factor × its fair share of one reducer gets
  // range-split; each slot (sub-partition or whole light pivot) is then
  // LPT-packed below.
  double mean_load =
      static_cast<double>(total_bytes) / plan.num_reducers;
  double split_threshold = std::max(1.0, options.split_factor * mean_load);

  struct Slot {
    uint64_t bytes = 0;
    ItemId pivot = kNoItem;
    int subpartition = -1;  // -1 = whole (unsplit) pivot
  };
  std::vector<Slot> slots;
  slots.reserve(stats.size());
  for (const PartitionStats& p : stats) {
    bool heavy = plan.num_reducers > 1 &&
                 static_cast<double>(p.total_bytes) > split_threshold;
    // At most one sub-partition per reducer; and the range split divides
    // the input index space, so more sub-partitions than input sequences
    // cannot receive data.
    int k = heavy ? static_cast<int>(std::min<uint64_t>(
                        {static_cast<uint64_t>(std::ceil(
                             static_cast<double>(p.total_bytes) /
                             split_threshold)),
                         static_cast<uint64_t>(plan.num_reducers),
                         num_inputs > 1 ? num_inputs : 1}))
                  : 1;
    if (k < 2) {
      slots.push_back(Slot{p.total_bytes, p.pivot, -1});
      continue;
    }
    // The measured bytes are divided evenly across the sub-partitions for
    // packing purposes (the true division depends on where the pivot's
    // sequences sit in the index space); the remainder goes to the first
    // slots so projected loads still sum to the measured total.
    uint64_t base = p.total_bytes / k;
    uint64_t remainder = p.total_bytes % k;
    for (int s = 0; s < k; ++s) {
      slots.push_back(
          Slot{base + (s < static_cast<int>(remainder) ? 1 : 0), p.pivot, s});
    }
    PivotSplit split;
    split.pivot = p.pivot;
    split.bytes = p.total_bytes;
    split.reducers.assign(k, 0);  // filled by the packing pass below
    plan.splits.push_back(std::move(split));
  }
  std::sort(plan.splits.begin(), plan.splits.end(),
            [](const PivotSplit& a, const PivotSplit& b) {
              return a.pivot < b.pivot;
            });

  // Greedy LPT: largest slot first onto the least-loaded reducer (ties by
  // reducer id, so the plan is deterministic).
  std::sort(slots.begin(), slots.end(), [](const Slot& a, const Slot& b) {
    if (a.bytes != b.bytes) return a.bytes > b.bytes;
    if (a.pivot != b.pivot) return a.pivot < b.pivot;
    return a.subpartition < b.subpartition;
  });
  auto split_of = [&plan](ItemId pivot) {
    return std::lower_bound(
        plan.splits.begin(), plan.splits.end(), pivot,
        [](const PivotSplit& s, ItemId p) { return s.pivot < p; });
  };
  for (const Slot& slot : slots) {
    int target = 0;
    for (int r = 1; r < plan.num_reducers; ++r) {
      if (plan.planned_reducer_bytes[r] < plan.planned_reducer_bytes[target]) {
        target = r;
      }
    }
    plan.planned_reducer_bytes[target] += slot.bytes;
    if (slot.subpartition < 0) {
      plan.assignments.emplace_back(slot.pivot, target);
    } else {
      split_of(slot.pivot)->reducers[slot.subpartition] = target;
    }
  }
  std::sort(plan.assignments.begin(), plan.assignments.end());
  // Construction-time contract (cold path, so always on): everything the
  // packing placed must point at a real reducer.
  for (const auto& [pivot, reducer] : plan.assignments) {
    DSEQ_CHECK_MSG(reducer >= 0 && reducer < plan.num_reducers,
                   "BuildPartitionPlan packed pivot " + std::to_string(pivot) +
                       " onto out-of-range reducer " + std::to_string(reducer));
  }
  for (const PivotSplit& split : plan.splits) {
    for (int reducer : split.reducers) {
      DSEQ_CHECK_MSG(reducer >= 0 && reducer < plan.num_reducers,
                     "BuildPartitionPlan packed a sub-partition of pivot " +
                         std::to_string(split.pivot) +
                         " onto out-of-range reducer " +
                         std::to_string(reducer));
    }
  }
  return plan;
}

BalanceSummary SummarizePlannedBalance(const PartitionPlan& plan) {
  return SummarizeReducerBytes(plan.planned_reducer_bytes);
}

}  // namespace dseq
