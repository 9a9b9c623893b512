// Candidate subsequence enumeration over the position–state grid.
//
// Gπ(T) is the union over accepting runs of the Cartesian product of each
// run's output sets (paper Sec. IV). Enumeration is exponential in the worst
// case; it backs the NAIVE/SEMI-NAIVE baselines, the Table IV candidate
// statistics, and brute-force oracles in tests. All entry points take a
// budget and report whether they completed within it.
#ifndef DSEQ_CORE_CANDIDATES_H_
#define DSEQ_CORE_CANDIDATES_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/core/grid.h"
#include "src/util/common.h"

namespace dseq {

/// Enumerates the distinct candidate subsequences of the grid (the empty
/// sequence is excluded). Returns false if more than `budget` raw (pre-dedup)
/// candidates were produced; `*out` is then incomplete. Output is sorted.
bool EnumerateCandidates(const StateGrid& grid, size_t budget,
                         std::vector<Sequence>* out);

/// Invokes `fn` once per accepting run with the run's edges (one per input
/// position). Returns false if more than `max_runs` runs exist (enumeration
/// stops early).
bool ForEachAcceptingRun(
    const StateGrid& grid, uint64_t max_runs,
    const std::function<void(const std::vector<const StateGrid::Edge*>&)>& fn);

}  // namespace dseq

#endif  // DSEQ_CORE_CANDIDATES_H_
