// Per-job memory budget for out-of-core execution (ROADMAP "spill-sort
// combiner states larger than memory").
//
// One MemoryBudget instance is shared by everything that buffers shuffle
// state during a dataflow round: the per-(map worker, reducer) ShuffleBuffer
// arenas charge the engine's record byte accounting (key + value +
// kShuffleRecordOverheadBytes, the same accounting the shuffle-size metric
// and ComputePartitionStats use), and the map workers' combiners charge the
// resident size of their tables and interning arenas. When a charge would
// exceed the budget the caller spills state to disk (releasing its charge)
// and retries; if spilling is disabled the caller throws an actionable
// ShuffleOverflowError instead.
//
// TryCharge is all-or-nothing, so concurrent workers race only for whole
// records. ForceCharge exists for the one legitimate overshoot: a worker
// that has already spilled everything it owns must still buffer the record
// it is holding (other workers' residents may fill the budget, and a worker
// can only ever free its own state). The overshoot is bounded by roughly
// one record per map worker.
//
// Memory ordering: every operation on `used_` is relaxed, deliberately. The
// balance is pure accounting — no worker's data is published through it.
// What each operation needs:
//   - TryCharge's CAS loop needs only the RMW's atomicity so two workers
//     cannot both claim the last bytes;
//   - Release's underflow CHECK needs only the RMW's returned value, which
//     is exact under any ordering (RMWs on one object are totally ordered);
//   - used_bytes() feeds heuristics (spill-worthiness, error messages) that
//     tolerate a stale-by-one-record view.
// The actual payload (arena contents, spill files) travels between threads
// through joins and the per-worker ownership discipline, never through this
// counter. A lock-free budget cannot be DSEQ_GUARDED_BY; this comment is
// its ordering contract instead.
#ifndef DSEQ_SPILL_MEMORY_BUDGET_H_
#define DSEQ_SPILL_MEMORY_BUDGET_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "src/util/check.h"

namespace dseq {

class MemoryBudget {
 public:
  /// budget_bytes == 0 means unlimited: every charge succeeds.
  explicit MemoryBudget(uint64_t budget_bytes) : budget_(budget_bytes) {}
  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  bool enabled() const { return budget_ > 0; }
  uint64_t budget_bytes() const { return budget_; }
  uint64_t used_bytes() const {
    return used_.load(std::memory_order_relaxed);
  }

  /// Charges `bytes` if the result stays within the budget; returns false
  /// (charging nothing) otherwise.
  bool TryCharge(uint64_t bytes) {
    if (!enabled()) return true;
    uint64_t used = used_.load(std::memory_order_relaxed);
    while (used + bytes <= budget_) {
      if (used_.compare_exchange_weak(used, used + bytes,
                                      std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

  /// Charges unconditionally — only after the caller spilled everything it
  /// can free (see the header comment for why this must exist).
  void ForceCharge(uint64_t bytes) {
    if (enabled()) used_.fetch_add(bytes, std::memory_order_relaxed);
  }

  /// Releases a prior charge. Charges and releases must mirror exactly:
  /// releasing more than is currently charged means a double release (or a
  /// charge that was never made), which would let the balance wrap and all
  /// later spill decisions run against garbage — so it aborts, always.
  void Release(uint64_t bytes) {
    if (!enabled() || bytes == 0) return;
    uint64_t prev = used_.fetch_sub(bytes, std::memory_order_relaxed);
    DSEQ_CHECK_MSG(prev >= bytes,
                   "MemoryBudget::Release of " + std::to_string(bytes) +
                       " bytes exceeds the charged balance of " +
                       std::to_string(prev) + " bytes (double release?)");
  }

 private:
  const uint64_t budget_;
  std::atomic<uint64_t> used_{0};
};

}  // namespace dseq

#endif  // DSEQ_SPILL_MEMORY_BUDGET_H_
