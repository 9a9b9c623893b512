// Shared infrastructure of the distributed miners (paper Sec. III).
//
// Every distributed algorithm in this library (NAIVE/SEMI-NAIVE, D-SEQ,
// D-CAND, and the specialized LASH/MG-FSM/PrefixSpan baselines) runs as
// map-shuffle-reduce rounds of a DataflowJob (src/dataflow/chained.h), on
// either backend: threads in this process or forked worker processes. This
// header collects what they all share: the options and result types, the
// drivers, the pivot-partition key coding, and small helpers.
#ifndef DSEQ_DIST_DISTRIBUTED_H_
#define DSEQ_DIST_DISTRIBUTED_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/desq_dfs.h"
#include "src/core/mining.h"
#include "src/dataflow/chained.h"
#include "src/dataflow/engine.h"
#include "src/util/common.h"
#include "src/util/varint.h"

namespace dseq {

/// Result of every distributed miner and driver: the frequent patterns
/// (canonicalized, sorted by pattern), one DataflowMetrics per shuffle
/// round (the paper's per-stage `shuffleWriteBytes` view) and their
/// field-wise sum. For a one-round miner `metrics` is that round's metrics.
struct DistributedResult {
  MiningResult patterns;
  std::vector<DataflowMetrics> round_metrics;
  DataflowMetrics metrics;

  size_t num_rounds() const { return round_metrics.size(); }
};

/// Dataflow knobs every distributed miner shares; the per-algorithm
/// options structs extend this. It is the chained-job configuration itself
/// (DataflowJob slices a miner's options down to it), so a dataflow setting
/// is declared once, in DataflowOptions. `round_index` is overwritten by
/// DataflowJob every round.
using DistributedRunOptions = DataflowOptions;

/// Reduce callback of the shared driver: one call per distinct shuffle key,
/// appending the partition's frequent patterns to `out` (a per-reduce-worker
/// buffer, so no locking is needed). `key` and the value views point into
/// the engine's shuffle buffers and are valid only during the call.
using PartitionReduceFn = std::function<void(
    std::string_view key, std::vector<std::string_view>& values,
    MiningResult& out)>;

/// Shared driver of the single-round distributed miners: runs one
/// map-shuffle-reduce round (`combine` as in RunMapReduce) and returns its
/// merged, canonicalized patterns and metrics (MakeChainedResult over a
/// one-round job). Mined patterns leave the reduce side as pattern records
/// (EncodePatternRecord) and are decoded by the driver, so the round works
/// identically on the proc backend, where reduce functions run in forked
/// processes and side effects on captured state are lost.
DistributedResult RunDistributedMining(size_t num_inputs, const MapFn& map_fn,
                                       bool combine,
                                       const PartitionReduceFn& reduce_fn,
                                       const DistributedRunOptions& options);

/// Assembles the result every driver returns: the patterns plus the
/// finished job's per-round and aggregate metrics.
DistributedResult MakeChainedResult(MiningResult patterns,
                                    const DataflowJob& job);

/// Encodes an item-partition key (the pivot item) as a shuffle key. Varint
/// coded so that shuffle-size accounting stays honest for frequent (small
/// fid) pivots.
std::string EncodePivotKey(ItemId pivot);

/// A decoded pivot-partition key: subpartition is -1 for plain pivot keys
/// (EncodePivotKey), >= 0 for a split pivot's sub-partition keys
/// (EncodeSubpartitionKey, src/dist/partition_plan.h).
struct PivotKeyParts {
  ItemId pivot = kNoItem;
  int subpartition = -1;
};

/// The one pivot-key parser: varint(pivot)[ + varint(subpartition)].
/// Returns false, without throwing, unless the bytes are exactly such a
/// key with a real pivot (kNoItem names no partition).
bool TryDecodePivotKeyParts(std::string_view key, PivotKeyParts* parts);

/// Decodes a key written by EncodePivotKey. Throws std::invalid_argument on
/// malformed keys, on pivot kNoItem and on sub-partition keys (they never
/// cross a trust boundary, but the shuffle is serialized end-to-end and
/// decoding errors should fail loudly: a reduce handed kNoItem would mine
/// an unrestricted store, i.e. other partitions' patterns).
ItemId DecodePivotKey(std::string_view key);

/// Appends the record encoding of one mined pattern: PutSequence(pattern) to
/// `key`, PutVarint(frequency) to `value`. Appending lets a caller prefix
/// the key (MineDSeqBalanced's tag byte).
void EncodePatternRecord(const PatternCount& mined, std::string* key,
                         std::string* value);

/// Decodes a record written by EncodePatternRecord (with any key prefix
/// already stripped). Throws std::invalid_argument on malformed bytes.
PatternCount DecodePatternRecord(std::string_view key, std::string_view value);

/// Work counts of one D-SEQ, D-CAND or NAIVE/SEMI-NAIVE map input,
/// accumulated on the stack and flushed to the mining.map_* counters once
/// per input under obs::Enabled(), so proc workers ship them too. Each
/// miner fills the fields of the work it does; the rest stay 0.
struct MapCounts {
  uint64_t sequences = 0;      // grids with an accepting run
  uint64_t grid_edges = 0;
  uint64_t pivots = 0;         // |K(T)|
  uint64_t input_items = 0;    // D-SEQ: |T| per shipped copy
  uint64_t shipped_items = 0;  // D-SEQ: |ρk(T)| per shipped copy
  uint64_t dfa_states = 0;     // D-CAND: subsets the one pass creates
  uint64_t min_states = 0;     // D-CAND: states of the minimal DFAs
  uint64_t nfa_bytes = 0;      // D-CAND: serialized NFA bytes
  uint64_t candidates = 0;     // NAIVE: distinct candidates emitted
  // Phase times in nanoseconds (obs::NowNs): every map's grid build, also
  // of an input with no accepting run, and D-SEQ's other two phases.
  uint64_t grid_ns = 0;     // grid build
  uint64_t pivots_ns = 0;   // pivot DP tables and rewrite bounds
  uint64_t rewrite_ns = 0;  // ρk(T) copies, their encoding and emits

  void Flush() const;
};

/// The local mining of one pivot partition, shared by the D-SEQ and D-CAND
/// reduces: mines `input` with MineDesqDfs and, under obs::Enabled(), adds
/// the group's work to the mining.reduce_* counters — `num_records` shuffled
/// records, the store's kept and dropped edges, the search's expansions
/// and pruned postings, and two phase times in nanoseconds: reduce_store_ns
/// from `store_start_ns` (obs::NowNs() before the caller decoded the first
/// record, or -1 when untraced) to the search, reduce_dfs_ns the search.
/// Once per key group, so proc workers ship them too. DCHECKs that every
/// mined pattern's largest item is the store's pivot.
MiningResult MinePartitionInput(const DfsInput& input,
                                const DesqDfsOptions& options,
                                size_t num_records, int64_t store_start_ns);

}  // namespace dseq

#endif  // DSEQ_DIST_DISTRIBUTED_H_
