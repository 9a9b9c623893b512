#include "src/dist/distributed.h"

#include <limits>
#include <stdexcept>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/check.h"
#include "src/util/thread_pool.h"

namespace dseq {

MiningResult MinePartitionInput(const DfsInput& input,
                                const DesqDfsOptions& options,
                                size_t num_records, int64_t store_start_ns) {
  const bool traced = store_start_ns >= 0 && obs::Enabled();
  const int64_t dfs_start_ns = traced ? obs::NowNs() : 0;
  DesqDfsStats stats;
  MiningResult result = MineDesqDfs(input, options, &stats);
#if DSEQ_DCHECK_IS_ON
  // A partition mines only its own pivot's patterns: each one's largest
  // item is the store's pivot.
  if (input.pivot() != kNoItem) {
    for (const PatternCount& pc : result) {
      DSEQ_CHECK_EQ(PivotItem(pc.pattern), input.pivot());
    }
  }
#endif
  if (obs::Enabled()) {
    static obs::Counter& sequences =
        obs::GetCounter("mining.reduce_sequences");
    static obs::Counter& edges_kept =
        obs::GetCounter("mining.reduce_edges_kept");
    static obs::Counter& edges_dropped =
        obs::GetCounter("mining.reduce_edges_dropped");
    static obs::Counter& expansions =
        obs::GetCounter("mining.reduce_dfs_expansions");
    static obs::Counter& postings_pruned =
        obs::GetCounter("mining.reduce_postings_pruned");
    static obs::Counter& store_ns = obs::GetCounter("mining.reduce_store_ns");
    static obs::Counter& dfs_ns = obs::GetCounter("mining.reduce_dfs_ns");
    sequences.Add(num_records);
    edges_kept.Add(input.num_edges());
    edges_dropped.Add(input.num_dropped_edges());
    expansions.Add(stats.expansions);
    postings_pruned.Add(stats.postings_pruned);
    if (traced) {
      store_ns.Add(static_cast<uint64_t>(dfs_start_ns - store_start_ns));
      dfs_ns.Add(static_cast<uint64_t>(obs::NowNs() - dfs_start_ns));
    }
  }
  return result;
}

void MapCounts::Flush() const {
  static obs::Counter& sequences_counter =
      obs::GetCounter("mining.map_sequences");
  static obs::Counter& grid_edges_counter =
      obs::GetCounter("mining.map_grid_edges");
  static obs::Counter& pivots_counter = obs::GetCounter("mining.map_pivots");
  static obs::Counter& input_items_counter =
      obs::GetCounter("mining.map_input_items");
  static obs::Counter& shipped_items_counter =
      obs::GetCounter("mining.map_shipped_items");
  static obs::Counter& dfa_states_counter =
      obs::GetCounter("mining.map_dfa_states");
  static obs::Counter& min_states_counter =
      obs::GetCounter("mining.map_min_states");
  static obs::Counter& nfa_bytes_counter =
      obs::GetCounter("mining.map_nfa_bytes");
  static obs::Counter& candidates_counter =
      obs::GetCounter("mining.map_candidates");
  static obs::Counter& grid_ns_counter = obs::GetCounter("mining.map_grid_ns");
  static obs::Counter& pivots_ns_counter =
      obs::GetCounter("mining.map_pivots_ns");
  static obs::Counter& rewrite_ns_counter =
      obs::GetCounter("mining.map_rewrite_ns");
  // A field left 0 skips its counter: each add is an atomic read-modify-
  // write on a cache line every map worker shares.
  auto add = [](obs::Counter& counter, uint64_t n) {
    if (n != 0) counter.Add(n);
  };
  add(sequences_counter, sequences);
  add(grid_edges_counter, grid_edges);
  add(pivots_counter, pivots);
  add(input_items_counter, input_items);
  add(shipped_items_counter, shipped_items);
  add(dfa_states_counter, dfa_states);
  add(min_states_counter, min_states);
  add(nfa_bytes_counter, nfa_bytes);
  add(candidates_counter, candidates);
  add(grid_ns_counter, grid_ns);
  add(pivots_ns_counter, pivots_ns);
  add(rewrite_ns_counter, rewrite_ns);
}

std::string EncodePivotKey(ItemId pivot) {
  std::string key;
  PutVarint(&key, pivot);
  return key;
}

bool TryDecodePivotKeyParts(std::string_view key, PivotKeyParts* parts) {
  size_t pos = 0;
  uint64_t pivot = 0;
  if (!GetVarint(key, &pos, &pivot) || pivot == kNoItem ||
      pivot > std::numeric_limits<ItemId>::max()) {
    return false;
  }
  parts->pivot = static_cast<ItemId>(pivot);
  parts->subpartition = -1;
  if (pos == key.size()) return true;
  uint64_t sub = 0;
  if (!GetVarint(key, &pos, &sub) || pos != key.size() ||
      sub > static_cast<uint64_t>(std::numeric_limits<int>::max())) {
    return false;
  }
  parts->subpartition = static_cast<int>(sub);
  return true;
}

ItemId DecodePivotKey(std::string_view key) {
  PivotKeyParts parts;
  if (!TryDecodePivotKeyParts(key, &parts) || parts.subpartition >= 0) {
    throw std::invalid_argument("malformed pivot partition key");
  }
  return parts.pivot;
}

void EncodePatternRecord(const PatternCount& mined, std::string* key,
                         std::string* value) {
  PutSequence(key, mined.pattern);
  PutVarint(value, mined.frequency);
}

PatternCount DecodePatternRecord(std::string_view key, std::string_view value) {
  PatternCount mined;
  size_t pos = 0;
  if (!GetSequence(key, &pos, &mined.pattern) || pos != key.size()) {
    throw std::invalid_argument("malformed pattern record key");
  }
  pos = 0;
  if (!GetVarint(value, &pos, &mined.frequency) || pos != value.size()) {
    throw std::invalid_argument("malformed pattern record value");
  }
  return mined;
}

namespace {

// Runs RunDistributedMining's one round on `job` and returns the round's
// merged, canonicalized patterns.
MiningResult RunMiningRound(DataflowJob& job, size_t num_inputs,
                            const MapFn& map_fn, bool combine,
                            const PartitionReduceFn& reduce_fn) {
  // Covers the round plus the driver-side decode of the mined records (the
  // part a per-round engine span cannot see).
  DSEQ_TRACE_SPAN("driver", "mining_round");
  // The reduce side runs in threads locally but in forked *processes* under
  // the proc backend, where appends to captured parent state are lost with
  // the child. Every mined pattern therefore leaves the reduce as an
  // emitted record and is decoded back here. Emitted records never touch
  // the shuffle, so the round's metrics are unchanged by this routing.
  ReduceFn worker_reduce = [&reduce_fn](int, std::string_view key,
                                        std::vector<std::string_view>& values,
                                        const EmitFn& emit) {
    MiningResult part;
    reduce_fn(key, values, part);
    std::string pattern_key;
    std::string frequency_value;
    for (const PatternCount& mined : part) {
      pattern_key.clear();
      frequency_value.clear();
      EncodePatternRecord(mined, &pattern_key, &frequency_value);
      emit(pattern_key, frequency_value);
    }
  };
  job.RunRound(num_inputs, map_fn, combine, worker_reduce);

  MiningResult patterns;
  std::vector<Record> records = job.TakeRecords();
  patterns.reserve(records.size());
  for (const Record& record : records) {
    patterns.push_back(DecodePatternRecord(record.key, record.value));
  }
  Canonicalize(&patterns);
  return patterns;
}

}  // namespace

DistributedResult MakeChainedResult(MiningResult patterns,
                                    const DataflowJob& job) {
  DistributedResult result;
  result.patterns = std::move(patterns);
  result.round_metrics = job.round_metrics();
  result.metrics = job.aggregate_metrics();
  return result;
}

DistributedResult RunDistributedMining(size_t num_inputs, const MapFn& map_fn,
                                       bool combine,
                                       const PartitionReduceFn& reduce_fn,
                                       const DistributedRunOptions& options) {
  DataflowJob job(options);
  return MakeChainedResult(
      RunMiningRound(job, num_inputs, map_fn, combine, reduce_fn), job);
}

}  // namespace dseq
