// D-CAND: distributed mining with candidate-represented partitions (paper
// Sec. VI).
//
// One map-shuffle-reduce round:
//   map    : per input sequence T, build from the σ-pruned grid the output
//            NFA of every pivot k ∈ K(T) as its minimal DFA, in one
//            depth-first subset construction (PivotNfaBuilder; no accepting
//            run is enumerated), and write its bytes in DFS order straight
//            from it (or unfold it into the paper's run trie and serialize
//            that)
//   shuffle: partitions keyed by pivot item; a combiner aggregates identical
//            serialized NFAs into weighted NFAs (Sec. VI-A)
//   reduce : each partition decodes its weighted NFAs straight into one
//            DfsInput (NFA states as coordinates) and mines it with
//            DESQ-DFS, counting distinct-NFA support
#ifndef DSEQ_DIST_DCAND_MINER_H_
#define DSEQ_DIST_DCAND_MINER_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/core/desq_dfs.h"
#include "src/core/grid.h"
#include "src/dict/dictionary.h"
#include "src/dist/distributed.h"
#include "src/fst/fst.h"
#include "src/nfa/output_nfa.h"

namespace dseq {

struct DCandOptions : DistributedRunOptions {
  uint64_t sigma = 1;

  /// Ship each NFA as its minimal DFA, which the map builds in one pass
  /// (registering states bottom-up as Revuz's minimization does). When
  /// false, the minimal DFA is unfolded into the trie of its accepted label
  /// strings and that is shipped (paper Fig. 10b "tries" ablation).
  bool minimize_nfas = true;

  /// Aggregate identical serialized NFAs into weighted NFAs in the shuffle
  /// (paper Sec. VI-A). When false, every NFA is shipped individually.
  bool aggregate_nfas = true;

  /// Per-sequence budget on the states created while building the
  /// sequence's partition NFAs: the subsets the one-pass construction
  /// creates (PivotNfaBuilder::states_created, each pivot's root included),
  /// plus the trie states when unfolding. Checked as they are created;
  /// exceeding it throws MiningBudgetError (the paper's per-container
  /// memory limit). 0 = unlimited.
  uint64_t max_nfa_states_per_sequence = 0;
};

/// Mines one candidate partition from in-memory NFAs, for the benchmark
/// replay and tests: an adapter that serializes each NFA and decodes it
/// into a DfsInput, as D-CAND's reduce decodes shuffled records, with
/// weight weights[i] (the two vectors must have equal size). A candidate is
/// counted once per NFA (distinct-sequence support) with the NFA's weight;
/// only sequences containing `pivot` are reported. Result is canonicalized.
MiningResult MineNfas(const std::vector<OutputNfa>& nfas,
                      const std::vector<uint64_t>& weights, uint64_t sigma,
                      ItemId pivot);

/// D-CAND's map of one input sequence, the map function of MineDCand: emits
/// one weighted NFA record (weight 1) per pivot k ∈ K(T) under k's
/// partition key, and under obs::Enabled() flushes the input's work to the
/// mining.map_* counters (MapCounts), its grid build time (map_grid_ns)
/// included, also for an input with no accepting run. `table` is the job's
/// step table, σ-pruned at options.sigma. Throws MiningBudgetError when the
/// state budget is exceeded.
void MapDCandInput(const Sequence& T, const StepTable& table,
                   const DCandOptions& options, const EmitFn& emit);

/// D-CAND's reduce of one partition, the reduce function of MineDCand:
/// decodes the weighted NFA records in `values` into a DfsInput for the
/// pivot named by `key` and mines it. Throws std::invalid_argument on a key
/// DecodePivotKey rejects and NfaParseError on a malformed record.
MiningResult MineDCandPartition(std::string_view key,
                                const std::vector<std::string_view>& values,
                                const DCandOptions& options);

/// Runs D-CAND. `db` must be fid-recoded with `dict`.
DistributedResult MineDCand(const std::vector<Sequence>& db, const Fst& fst,
                            const Dictionary& dict,
                            const DCandOptions& options);

}  // namespace dseq

#endif  // DSEQ_DIST_DCAND_MINER_H_
