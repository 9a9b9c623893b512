// NAIVE and SEMI-NAIVE distributed baselines (paper Sec. III-C).
//
// Word-count-style candidate shipping: the map phase enumerates each input
// sequence's candidate subsequences and emits one (candidate, 1) record per
// distinct candidate; a combiner pre-aggregates counts per map worker and
// the reduce phase sums distinct-sequence supports and filters by σ.
//
// NAIVE enumerates the unpruned Gπ(T); SEMI-NAIVE first removes infrequent
// items from the FST output sets (grid σ-pruning), so only candidates made
// of frequent items cross the shuffle — same results, smaller shuffle.
#ifndef DSEQ_DIST_NAIVE_H_
#define DSEQ_DIST_NAIVE_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/core/desq_dfs.h"
#include "src/core/grid.h"
#include "src/dict/dictionary.h"
#include "src/dist/distributed.h"
#include "src/fst/fst.h"

namespace dseq {

struct NaiveOptions : DistributedRunOptions {
  uint64_t sigma = 1;

  /// Prune infrequent items before candidate enumeration (SEMI-NAIVE).
  bool semi_naive = false;

  /// Per-sequence budget on raw (pre-dedup) candidates; exceeding it throws
  /// MiningBudgetError (candidate explosion = certain OOM at cluster
  /// scale). 0 = unlimited (ForEachCandidateKey's rule).
  uint64_t candidates_per_sequence_budget = 0;
};

/// NAIVE/SEMI-NAIVE's map of one input sequence, the map function of both
/// miners: builds T's grid (σ-pruned for SEMI-NAIVE) and emits (key,
/// varint(1)) once per distinct candidate, with the key its PutSequence
/// encoding (ForEachCandidateKey). Under obs::Enabled() it flushes the
/// input's work to the mining.map_* counters (MapCounts: sequences,
/// grid_edges and candidates, the distinct candidates emitted, and the grid
/// build time grid_ns, also for an input with no accepting run). Throws
/// MiningBudgetError when T has more raw candidates than
/// candidates_per_sequence_budget (0 = unlimited), and then emits nothing.
/// `table` is the job's step table: σ-pruned at options.sigma for
/// SEMI-NAIVE, unpruned (0) for NAIVE.
void MapNaiveInput(const Sequence& T, const StepTable& table,
                   const NaiveOptions& options, const EmitFn& emit);

/// NAIVE/SEMI-NAIVE's reduce of one candidate, the reduce function of both
/// miners: sums the counts in `values` (each exactly one varint) and, when
/// the support reaches options.sigma, decodes `key` (one PutSequence
/// candidate) into the one pattern returned; a group below σ yields nothing
/// and its key is not decoded. Throws std::invalid_argument on a malformed
/// count or, for a frequent group, a malformed key.
MiningResult MineNaivePartition(std::string_view key,
                                const std::vector<std::string_view>& values,
                                const NaiveOptions& options);

/// Runs NAIVE (or SEMI-NAIVE). `db` must be fid-recoded with `dict`.
DistributedResult MineNaive(const std::vector<Sequence>& db, const Fst& fst,
                            const Dictionary& dict,
                            const NaiveOptions& options);

}  // namespace dseq

#endif  // DSEQ_DIST_NAIVE_H_
