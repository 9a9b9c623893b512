// D-SEQ: distributed mining with sequence-represented partitions (paper
// Sec. V).
//
// One map-shuffle-reduce round:
//   map    : per input sequence T, build the σ-pruned position–state grid,
//            find the pivot items K(T) (Theorem 1 DP), and send a rewritten
//            copy ρk(T) of T to every partition P_k, k ∈ K(T)
//   shuffle: partitions are keyed by pivot item; an optional combiner
//            aggregates identical rewritten sequences into weighted ones
//            (the LASH trick applied to D-SEQ; DESIGN extension)
//   reduce : each partition runs pivot-restricted DESQ-DFS (Sec. V-C) on its
//            rewritten sequences and emits the pivot-k frequent patterns
//
// Ablation toggles mirror paper Fig. 10a: the grid DP vs naive run
// enumeration for pivot search, input rewriting, and early stopping.
#ifndef DSEQ_DIST_DSEQ_MINER_H_
#define DSEQ_DIST_DSEQ_MINER_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/core/desq_dfs.h"
#include "src/core/grid.h"
#include "src/core/pivot.h"
#include "src/dict/dictionary.h"
#include "src/dist/distributed.h"
#include "src/dist/partition_plan.h"
#include "src/fst/fst.h"

namespace dseq {

struct DSeqOptions : DistributedRunOptions {
  uint64_t sigma = 1;

  /// Pivot search via the position–state grid DP (Theorem 1). When false,
  /// pivots are found by naively folding ⊕ over every accepting run (the
  /// paper's "no grid" ablation, exponential in the worst case).
  bool use_grid = true;

  /// Rewrite (trim) input sequences per pivot before shuffling (Sec. V-B).
  /// Only effective with use_grid (the rewriter works on the grid).
  bool rewrite = true;

  /// Early stopping in the pivot-restricted local miners (Sec. V-C).
  bool early_stop = true;

  /// D-SEQ aggregation extension: combine identical rewritten sequences into
  /// weighted sequences in the shuffle.
  bool aggregate_sequences = false;

  /// Simulation-step budget for the no-grid pivot search; exceeding it
  /// throws MiningBudgetError (the ablation's OOM/timeout emulation).
  uint64_t nogrid_step_budget = 1'000'000'000;
};

/// Per-grid rewriter: runs the backward and forward pivot DPs once on the
/// calling thread's PivotDp (bitsets over the grid's ranked output items),
/// reads every pivot's kept range off the layers where its runs depart the
/// initial state and arrive at their final idle state (each departure or
/// arrival edge settles its not yet settled pivots with one word-level ⊕),
/// then rewrites for any number of pivots. Used by the D-SEQ map phase and
/// the partition planner (one sequence, many pivots).
class PivotRewriter {
 public:
  PivotRewriter(const Sequence& T, const StateGrid& grid);

  /// K(T), sorted ascending: the same items FindPivotItems(grid) returns,
  /// read off the rewriter's own backward DP at (0, initial).
  const Sequence& pivots() const { return pivots_; }

  /// ρk(T): T with irrelevant leading/trailing positions removed, such that
  /// the pivot-k candidate subsequences of the rewritten sequence are
  /// exactly those of T (paper Sec. V-B). Never longer than T and never
  /// empty. `pivot` must be one of pivots().
  Sequence Rewrite(ItemId pivot) const;

 private:
  const Sequence& T_;
  Sequence pivots_;
  // ρk(T) = T[lead_[p], cut_[p]) for k = pivots_[p].
  std::vector<uint32_t> lead_;
  std::vector<uint32_t> cut_;
};

/// D-SEQ's map of one input sequence, the map function of every D-SEQ
/// miner: emits ρk(T) (T itself without rewriting) under k's partition key
/// for every pivot k ∈ K(T), preceded by a weight varint of 1 under
/// aggregate_sequences, and under obs::Enabled() flushes the input's work to
/// the mining.map_* counters (MapCounts), its phase times included:
/// map_grid_ns (grid build), map_pivots_ns (pivot tables and rewrite
/// bounds) and map_rewrite_ns (ρk(T) copies, their encoding and the emits
/// they feed). `table` is the job's step table,
/// σ-pruned at options.sigma. Under a `plan`, a pivot the plan splits ships
/// under the sub-partition key of `index`, the input's index in the
/// database. Throws MiningBudgetError when the no-grid pivot search exceeds
/// its step budget.
void MapDSeqInput(const Sequence& T, const StepTable& table,
                  const DSeqOptions& options, const EmitFn& emit,
                  const PartitionPlan* plan = nullptr, size_t index = 0);

/// D-SEQ's reduce of one partition, the reduce function of every D-SEQ
/// miner: decodes each (weighted, under aggregate_sequences) rewrite in
/// `values` straight into a DfsInput over `table` for the pivot named by
/// `key`, and mines it with pivot-restricted DESQ-DFS (MinePartitionInput).
/// A pivot key mines at options.sigma; a sub-partition key
/// (EncodeSubpartitionKey) mines at 1, since a slice of the pivot's
/// sequences proves nothing about σ. Throws std::invalid_argument on a
/// malformed key or record, or an item outside the table.
MiningResult MineDSeqPartition(std::string_view key,
                               const std::vector<std::string_view>& values,
                               const StepTable& table,
                               const DSeqOptions& options);

/// Runs D-SEQ. `db` must be fid-recoded with `dict`'s frequencies (the state
/// SequenceDatabase::Recode leaves behind).
DistributedResult MineDSeq(const std::vector<Sequence>& db, const Fst& fst,
                           const Dictionary& dict, const DSeqOptions& options);

struct DSeqBalanceOptions : DSeqOptions {
  /// PartitionPlanOptions::split_factor of the plan; the plan always packs
  /// for num_reduce_workers.
  double split_factor = 1.0;
};

/// Plan-driven D-SEQ (ROADMAP "partition balance actions"): measures the
/// per-pivot shuffle volume with ComputePartitionStats, builds a
/// PartitionPlan (LPT packing, light-pivot bundling, heavy-pivot range
/// splits), and runs the D-SEQ round under the plan's key→reducer hook.
/// Split pivots defer the support threshold: their sub-partitions mine with
/// σ=1 and emit (pattern, local support) boundary records that one extra
/// chained round sums and filters with the real σ — so the returned
/// patterns are byte-identical to MineDSeq's, whatever the plan did.
///
/// round_metrics has one entry for the mining round, plus a second entry
/// for the reconcile round when at least one split sub-partition produced
/// candidates. The planning pass itself is driver-local (the in-process
/// analogue of collecting stats at the master) and shuffles nothing.
///
/// If `plan_out` is non-null it receives the plan that was used (for
/// --stats and the balance bench).
///
/// The plan owns the run's key→reducer hook; a caller-supplied
/// options.partitioner throws std::invalid_argument (use MineDSeq for a
/// custom hook). With aggregate_sequences the plan packs from pre-combine
/// volumes (see ComputePartitionStats); results are unaffected, projected
/// loads become an upper bound.
DistributedResult MineDSeqBalanced(const std::vector<Sequence>& db,
                                   const Fst& fst,
                                   const Dictionary& dict,
                                   const DSeqBalanceOptions& options,
                                   PartitionPlan* plan_out = nullptr);

}  // namespace dseq

#endif  // DSEQ_DIST_DSEQ_MINER_H_
