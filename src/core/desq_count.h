// DESQ-COUNT: sequential mining by candidate counting (Beedkar & Gemulla,
// ICDM'16).
//
// For each input sequence, enumerates the distinct σ-filtered candidate
// subsequences Gσπ(T) and counts them in a hash table. Efficient for
// *selective* predicates (few candidates per sequence); DESQ-DFS is the
// better choice for loose ones. Included as the second sequential baseline
// of the DESQ framework and as an independent oracle for the pattern-growth
// miners.
#ifndef DSEQ_CORE_DESQ_COUNT_H_
#define DSEQ_CORE_DESQ_COUNT_H_

#include <cstdint>

#include "src/core/mining.h"
#include "src/dict/dictionary.h"
#include "src/fst/fst.h"

namespace dseq {

struct DesqCountOptions {
  uint64_t sigma = 1;
  /// Parallelize candidate generation over input shards (counts are merged).
  int num_workers = 1;
  /// Per-sequence enumeration budget on raw (pre-dedup) candidates;
  /// exceeding it throws MiningBudgetError (candidate explosion — use
  /// DESQ-DFS instead). 0 = unlimited (the rule of ForEachCandidateKey,
  /// shared with NaiveOptions::candidates_per_sequence_budget).
  uint64_t candidates_per_sequence_budget = 10'000'000;
};

/// Mines all frequent subsequences by candidate counting. Result is
/// canonicalized and identical to MineDesqDfs.
MiningResult MineDesqCount(const std::vector<Sequence>& db, const Fst& fst,
                           const Dictionary& dict,
                           const DesqCountOptions& options);

}  // namespace dseq

#endif  // DSEQ_CORE_DESQ_COUNT_H_
