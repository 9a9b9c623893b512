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

/// Per-grid rewriter: runs the forward/backward pivot DPs once, folds them
/// into per-layer rewrite facts, then rewrites for any number of pivots.
/// Used by the D-SEQ map phase and the partition planner (one sequence,
/// many pivots).
class PivotRewriter {
 public:
  PivotRewriter(const Sequence& T, const StateGrid& grid);

  /// K(T), sorted ascending: the same items FindPivotItems(grid) returns,
  /// read off the rewriter's own forward DP.
  const Sequence& pivots() const { return pivots_; }

  /// ρk(T): T with irrelevant leading/trailing positions removed, such that
  /// the pivot-k candidate subsequences of the rewritten sequence are
  /// exactly those of T (paper Sec. V-B). Never longer than T and never
  /// empty. `pivot` must be one of pivots().
  Sequence Rewrite(ItemId pivot) const;

 private:
  // Per-layer sorted, duplicate-free item blocks stored back to back.
  struct LayerBlocks {
    std::vector<ItemId> items;
    std::vector<uint32_t> begin{0};  // block i is items[begin[i], begin[i+1])

    // Sorts and dedups `*scratch` into the next layer's block; clears it.
    void Close(Sequence* scratch);
    bool Contains(size_t layer, ItemId pivot) const;
  };

  const Sequence& T_;
  Sequence pivots_;
  // Pivots of the runs through each layer's edges, except the initial ε
  // self-loop (lead) or the final ε self-loops (trail).
  LayerBlocks lead_;
  LayerBlocks trail_;
  std::vector<uint8_t> initial_self_loop_;  // per layer
  std::vector<uint8_t> cut_accepts_;        // per layer
};

/// One-shot convenience wrapper around PivotRewriter.
Sequence RewriteForPivot(const Sequence& T, const StateGrid& grid,
                         ItemId pivot);

/// Runs D-SEQ. `db` must be fid-recoded with `dict`'s frequencies (the state
/// SequenceDatabase::Recode leaves behind).
DistributedResult MineDSeq(const std::vector<Sequence>& db, const Fst& fst,
                           const Dictionary& dict, const DSeqOptions& options);

struct DSeqRecountOptions : DSeqOptions {
  /// Count every sample_every-th sequence in the recount round and scale the
  /// counts back up (1 = exact recount, results identical to MineDSeq).
  uint32_t recount_sample_every = 1;
};

/// Two-round chained D-SEQ: round 1 recounts the item document frequencies
/// on the dataflow, round 2 runs the D-SEQ map/shuffle/reduce with grids
/// σ-pruned by the recounted f-list. Item ids (and with them pivots) stay
/// fixed; only pruning decisions see the new counts. Budgets follow
/// DistributedRunOptions: shuffle_budget_bytes bounds each round,
/// cumulative_shuffle_budget_bytes the whole chain.
ChainedDistributedResult MineDSeqRecount(const std::vector<Sequence>& db,
                                         const Fst& fst,
                                         const Dictionary& dict,
                                         const DSeqRecountOptions& options);

struct DSeqBalanceOptions : DSeqOptions {
  /// Planning knobs (plan.num_reducers is overridden by
  /// num_reduce_workers — the plan always packs for the actual run).
  PartitionPlanOptions plan;
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
ChainedDistributedResult MineDSeqBalanced(const std::vector<Sequence>& db,
                                          const Fst& fst,
                                          const Dictionary& dict,
                                          const DSeqBalanceOptions& options,
                                          PartitionPlan* plan_out = nullptr);

}  // namespace dseq

#endif  // DSEQ_DIST_DSEQ_MINER_H_
