// Candidate subsequence enumeration over the position–state grid.
//
// Gπ(T) is the union over accepting runs of the Cartesian product of each
// run's output sets (paper Sec. IV). Enumeration is exponential in the worst
// case; it backs the NAIVE/SEMI-NAIVE baselines, DESQ-COUNT, the Table IV
// candidate statistics, and brute-force oracles in tests. All entry points
// take a budget and report whether they completed within it.
//
// There is one candidate search, ForEachCandidateKey. It walks the grid
// depth-first and keeps the current prefix as the body of its PutSequence
// encoding: PutSequence writes each item as the zigzag varint of its delta
// to the previous item, so the body grows by one varint per item taken and
// shrinks back when the search returns. Each accepting leaf writes its key,
// varint(length) + body, once into one byte buffer, and a flat
// open-addressing set over that buffer drops the keys already seen for this
// sequence; no candidate gets a heap allocation of its own. A coordinate
// from which no path to the last layer outputs an item (the trailing `.*`
// of an unanchored pattern) is a leaf: all its accepting paths yield the
// prefix, so they count as raw candidates at once, unwalked.
#ifndef DSEQ_CORE_CANDIDATES_H_
#define DSEQ_CORE_CANDIDATES_H_

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "src/core/grid.h"
#include "src/util/common.h"

namespace dseq {

/// Calls `fn(key)` once per distinct candidate subsequence of the grid (the
/// empty sequence excluded), with `key` its PutSequence encoding; the view
/// is valid only during the call. The order of the calls is unspecified.
/// Keys are deduplicated per call, i.e. per input sequence, so each key
/// counts the sequence once (distinct-sequence support).
///
/// `budget` bounds the raw candidates, counted before deduplication (one per
/// accepting run and choice of one item from each non-ε output set on it);
/// 0 means unlimited. Returns false iff the grid has more than `budget` raw
/// candidates, and then calls `fn` for no key at all.
bool ForEachCandidateKey(const StateGrid& grid, uint64_t budget,
                         const std::function<void(std::string_view)>& fn);

/// The distinct candidates of the grid, decoded and sorted: the keys of
/// ForEachCandidateKey under the same budget rule. Returns false (with
/// `*out` empty) if more than `budget` raw candidates exist.
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
