// Named metrics registry: counters and log2-bucket histograms.
//
// Replaces ad-hoc counter plumbing for everything that is a *distribution*
// or a cross-cutting tally rather than a per-round dataflow metric
// (DataflowMetrics keeps the paper's per-round fields). Hot-path
// observation sites are gated on obs::Enabled() — a disabled run pays one
// relaxed load and a branch, nothing else; lookups by name happen once per
// site via a function-local static reference.
//
// Naming scheme: `subsystem.measurement[_unit]`, lowercase, dot-separated
// subsystem, e.g. `shuffle.record_bytes`, `spill.run_bytes`,
// `proc.segment_bytes`, `rpc.frame_send_ns`, `budget.charge_bytes`. Registered metrics live for the process (leaked
// singletons — the sanctioned pattern; ASan tracks real leaks).
//
// Cross-process: proc workers ship registry *deltas* (everything observed
// since the previous snapshot — fork copies the parent's values, so
// absolute values would double-count) inside kTrace frames; the
// coordinator merges them in, so `--metrics-json` reflects the whole run.
#ifndef DSEQ_OBS_METRICS_H_
#define DSEQ_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

namespace dseq {
namespace obs {

void AppendRegistryDeltas(std::string* out);
bool IngestRegistryDeltas(std::string_view data, size_t* pos);
void RebaselineRegistryDeltas();
void ResetMetricsForTest();

/// Monotonically increasing tally.
class Counter {
 public:
  void Add(uint64_t n = 1) {
    // Relaxed: pure tally — readers (JSON snapshot, wire encode) run after
    // the contributing threads joined or don't need exactness mid-flight.
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend void AppendRegistryDeltas(std::string* out);
  friend bool IngestRegistryDeltas(std::string_view data, size_t* pos);
  friend void RebaselineRegistryDeltas();
  friend void ResetMetricsForTest();
  std::atomic<uint64_t> value_{0};
  // Wire-delta baseline: value already shipped in a previous snapshot.
  // Relaxed atomic: only the snapshot-encoding thread touches it, the
  // atomic exists so concurrent Value() readers stay analyzer-clean.
  std::atomic<uint64_t> wire_base_{0};
};

/// Log2-bucket histogram over uint64 observations: bucket 0 counts zeros,
/// bucket k >= 1 counts values in [2^(k-1), 2^k). 64 buckets + a running
/// sum — fixed size, lock-free, mergeable across processes.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void Observe(uint64_t v) {
    // Relaxed throughout: independent tallies; snapshot readers tolerate
    // a momentarily inconsistent (count, sum) pair by construction.
    buckets_[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  static int BucketIndex(uint64_t v) {
    if (v == 0) return 0;
    int log2 = 63 - __builtin_clzll(v);
    return log2 + 1 > kBuckets - 1 ? kBuckets - 1 : log2 + 1;
  }

  uint64_t BucketCount(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  uint64_t TotalCount() const;
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  friend void AppendRegistryDeltas(std::string* out);
  friend bool IngestRegistryDeltas(std::string_view data, size_t* pos);
  friend void RebaselineRegistryDeltas();
  friend void ResetMetricsForTest();
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> sum_{0};
  // Shipped-delta baselines (see Counter::wire_base_).
  std::atomic<uint64_t> bucket_wire_base_[kBuckets] = {};
  std::atomic<uint64_t> sum_wire_base_{0};
};

/// Find-or-create by name. The returned reference is valid for the process
/// lifetime; cache it in a function-local static at hot sites:
///
///   static obs::Histogram& h = obs::GetHistogram("shuffle.record_bytes");
///   if (obs::Enabled()) h.Observe(bytes);
Counter& GetCounter(const std::string& name);
Histogram& GetHistogram(const std::string& name);

/// JSON snapshot of the whole registry, keys sorted:
/// {"counters":{...},"histograms":{"name":{"count":..,
/// "sum":..,"buckets":{"8":n,...}}}} (bucket key = upper bound 2^k).
std::string RegistryJson();

/// Wire-delta codec (used inside kTrace payloads — see trace.h).
/// AppendRegistryDeltas encodes everything observed since the previous
/// Append/rebaseline and advances the shipped watermark;
/// IngestRegistryDeltas merges such a block into this process's registry.
void AppendRegistryDeltas(std::string* out);
bool IngestRegistryDeltas(std::string_view data, size_t* pos);

/// Re-baselines the shipped watermarks to the current values without
/// encoding — a freshly forked worker discards the parent's history so
/// its first snapshot ships only its own activity.
void RebaselineRegistryDeltas();

/// Test hook: zeroes every registered metric and its watermark.
void ResetMetricsForTest();

}  // namespace obs
}  // namespace dseq

#endif  // DSEQ_OBS_METRICS_H_
