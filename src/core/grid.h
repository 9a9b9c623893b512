// Position–state grid for FST simulation (paper Sec. V-A, Fig. 5b).
//
// For an input sequence T and an FST, the grid is a layered DAG over
// coordinates (i, q): "after consuming the first i items of T, the FST is in
// state q". Edges between layers i and i+1 carry the materialized output set
// of the matched transition (sorted item vector; empty = ε). The grid is
// pruned to coordinates that lie on at least one *accepting* run — the
// paper's dynamic-programming dead-end elimination.
//
// Layout: coordinate (i, q) has the index c = i * num_states() + q, and the
// edges live in one array in coordinate order, those out of c at
// [offset(c), offset(c + 1)) (a CSR: one offset per coordinate into one
// edge array). Within a coordinate they are sorted by (to, out), so a layer
// is a contiguous range sorted by (from, to, out). Readers that work per
// coordinate take EdgesOf(c), readers that work per layer EdgesAt(i), and
// readers that keep per-edge state index it by EdgeIndex().
//
// The grid is the structure behind pivot search (Theorem 1), sequence
// rewriting, candidate enumeration (NAIVE, SEMI-NAIVE, DESQ-COUNT) and
// D-CAND's per-pivot NFA construction. DESQ-DFS does not mine over grids:
// it builds its own flat store (DfsInput, src/core/desq_dfs.h) with the
// same FST step (StepTransition).
#ifndef DSEQ_CORE_GRID_H_
#define DSEQ_CORE_GRID_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/dict/dictionary.h"
#include "src/fst/fst.h"
#include "src/util/common.h"

namespace dseq {

/// Options for grid construction.
struct GridOptions {
  /// If > 0, items with document frequency < sigma are removed from output
  /// sets (they cannot appear in a frequent subsequence; paper Sec. III-A).
  /// See StepTransition.
  uint64_t prune_sigma = 0;
};

/// One step of the FST simulation on input item `t`: true iff `tr` matches
/// `t` and yields an edge, whose sorted output set (empty = ε) is left in
/// `*out`. When prune_sigma > 0, items with document frequency <
/// prune_sigma are removed, and a non-ε transition left with no item yields
/// no edge: no candidate made of frequent items can traverse it.
/// StateGrid::Build, DfsInput::Add and the no-grid pivot search all step
/// through here, so the σ rule lives in one place.
inline bool StepTransition(const Fst& fst, const Transition& tr, ItemId t,
                           const Dictionary& dict, uint64_t prune_sigma,
                           Sequence* out) {
  if (!fst.Matches(tr, t, dict)) return false;
  fst.ComputeOutput(tr, t, dict, out);
  if (prune_sigma == 0 || out->empty()) return true;
  out->erase(std::remove_if(out->begin(), out->end(),
                            [&](ItemId w) {
                              return dict.DocFrequency(w) < prune_sigma;
                            }),
             out->end());
  return !out->empty() || tr.out_kind == OutputKind::kEpsilon;
}

/// Layered DAG of live FST simulation coordinates for one input sequence.
class StateGrid {
 public:
  struct Edge {
    StateId from;  // FST state at layer i
    StateId to;    // FST state at layer i+1
    Sequence out;  // sorted output items; empty = ε
  };

  StateGrid() = default;

  /// Builds the pruned grid for `T` under `fst`.
  static StateGrid Build(const Sequence& T, const Fst& fst,
                         const Dictionary& dict, const GridOptions& options = {});

  /// Length of the input sequence (number of layers minus one).
  size_t length() const { return length_; }

  /// Number of FST states (width of each layer).
  size_t num_states() const { return num_states_; }

  /// True iff at least one accepting run exists (grid non-empty).
  bool HasAcceptingRun() const { return accepting_; }

  /// Edges out of layer `pos` (consuming input item T[pos]), 0 <= pos <
  /// length(), sorted by (from, to, out).
  Span<Edge> EdgesAt(size_t pos) const {
    return Range(pos * num_states_, (pos + 1) * num_states_);
  }

  /// Edges out of coordinate c = i * num_states() + q, 0 <= i <= length(),
  /// sorted by (to, out); empty on the last layer.
  Span<Edge> EdgesOf(size_t coord) const { return Range(coord, coord + 1); }

  /// Every edge, in coordinate order.
  Span<Edge> edges() const { return {edges_.data(), edges_.size()}; }

  /// Index of `e` (an edge of this grid) in edges().
  size_t EdgeIndex(const Edge& e) const { return &e - edges_.data(); }

  /// True iff coordinate (pos, q) lies on an accepting run.
  bool Alive(size_t pos, StateId q) const {
    return alive_[pos * num_states_ + q];
  }

  /// True iff coordinate (pos, q) is forward-reachable from (0, initial),
  /// regardless of whether an accepting run passes through it. Used by the
  /// D-SEQ rewriter's trailing-trim safety check.
  bool ForwardActive(size_t pos, StateId q) const {
    return forward_active_[pos * num_states_ + q];
  }

  /// True iff q is a final FST state (acceptance test at pos == length()).
  bool IsFinalState(StateId q) const { return finals_[q]; }

  /// Initial FST state (the unique live state of layer 0, when accepting).
  StateId initial_state() const { return initial_; }

  /// Total number of live edges (grid size metric).
  size_t num_edges() const { return edges_.size(); }

 private:
  // The edges out of coordinates [first, last).
  Span<Edge> Range(size_t first, size_t last) const {
    return {edges_.data() + offsets_[first], offsets_[last] - offsets_[first]};
  }

  size_t length_ = 0;
  size_t num_states_ = 0;
  StateId initial_ = 0;
  bool accepting_ = false;
  std::vector<bool> alive_;             // (length+1) x num_states
  std::vector<bool> forward_active_;    // (length+1) x num_states
  std::vector<Edge> edges_;             // in coordinate order
  std::vector<uint32_t> offsets_;       // (length+1) x num_states, plus end
  std::vector<bool> finals_;
};

}  // namespace dseq

#endif  // DSEQ_CORE_GRID_H_
