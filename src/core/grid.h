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
// The FST step — does a transition match item t, and which σ-pruned output
// set does it yield — is a pure function of the transition's class
// (in_kind, in_item, out_kind, out_item) and t, for a fixed FST, dictionary
// and σ. A job has only a handful of classes, so each miner's driver
// tabulates the step once per job in a StepTable, before its round (proc
// workers inherit it through fork). Every grid is built backward first by
// the table's one walk (StepTable::Walk): each position's step of each
// class, then every coordinate's liveness bits from the top layer down.
// StateGrid::Build runs it with no pivot and then one forward pass that
// appends only the edges between live coordinates; DESQ-DFS's flat store
// (DfsInput::Add, src/core/desq_dfs.h) runs it with its pivot. The no-grid
// pivot search reads the table's moves and cells directly.
//
// The grid is the structure behind pivot search (Theorem 1), sequence
// rewriting, candidate enumeration (NAIVE, SEMI-NAIVE, DESQ-COUNT) and
// D-CAND's per-pivot NFA construction.
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
  /// See StepTable.
  uint64_t prune_sigma = 0;
};

/// The FST step of one job, tabulated over (transition class, item). A
/// class is a distinct (in_kind, in_item, out_kind, out_item) of the FST's
/// transitions. Per (class, item) the table holds "no edge" or the edge's
/// sorted output set (empty = ε), a span of one pooled item array; per
/// state it holds the (to, class) moves of the state's transitions, sorted
/// by (to, class). With prune_sigma > 0, items of document frequency <
/// prune_sigma are removed from output sets, and a non-ε transition left
/// with no item yields no edge: no candidate made of frequent items can
/// traverse it. The table's build is the one place that steps the FST and
/// applies that σ rule. Immutable once built.
class StepTable {
 public:
  /// One move out of a state: a transition's target and class.
  struct Move {
    StateId to;
    uint32_t cls;
  };

  /// Tabulates every class over every item 1..dict.size(): a job's table.
  StepTable(const Fst& fst, const Dictionary& dict, uint64_t prune_sigma);

  /// Tabulates every class over `items` only (sorted, distinct, each one of
  /// `dict`'s): the table of the sequences made of them.
  StepTable(const Fst& fst, const Dictionary& dict, uint64_t prune_sigma,
            Sequence items);

  size_t num_states() const { return finals_.size(); }
  StateId initial() const { return initial_; }
  bool IsFinal(StateId q) const { return finals_[q] != 0; }
  uint64_t prune_sigma() const { return prune_sigma_; }
  size_t num_classes() const { return num_classes_; }

  /// The moves out of state q, sorted by (to, class).
  Span<Move> MovesFrom(StateId q) const {
    return {moves_.data() + move_begin_[q],
            move_begin_[q + 1] - move_begin_[q]};
  }

  /// The table column of item `w`. Throws std::invalid_argument if the
  /// table does not hold `w` (an id outside the dictionary, or an item
  /// left out of a partial table).
  size_t Column(ItemId w) const;

  /// The step of class `cls` on the item in column `col`: false if it yields
  /// no edge; otherwise true, with the edge's output set in `*label`.
  bool Step(size_t col, uint32_t cls, Span<ItemId>* label) const {
    const Cell& cell = cells_[col * num_classes_ + cls];
    if (cell.begin == kNoEdge) return false;
    *label = Span<ItemId>(labels_.data() + cell.begin, cell.size);
    return true;
  }

  /// The pooled output sets: every label Step and Walk return lies in this
  /// array.
  const ItemId* label_pool() const { return labels_.data(); }

  /// What a walked step yields, ordered: the kinds below kEpsStep yield no
  /// edge.
  enum StepKind : uint8_t {
    kNoStep,     // the class does not match the item
    kCutStep,    // the pivot cut emptied the output set
    kEpsStep,    // ε output
    kItemStep,   // items <= k, k not among them
    kPivotStep,  // items <= k, the last one k
  };
  /// The step of one class at one position of a walked sequence, its
  /// output set cut to the walk's pivot k (out ∩ [0, k], the whole set with
  /// no pivot): the label is pool[label_begin, label_begin + label_size), a
  /// prefix of the table cell's.
  struct WalkStep {
    uint32_t label_begin;
    uint32_t label_size;
    StepKind kind;
  };

  /// The walk every grid of `T` is built from, for `pivot` (kNoItem: none).
  /// First every position's step of every class, cut to the pivot, into
  /// `*steps` at i * num_classes() + cls; a label whose last item is <= k
  /// is taken whole, so with no pivot nothing is searched. Then, backward
  /// from layer |T|, every coordinate's bits into `*bits`, at
  /// i * num_states() + q: pivot.h's kLiveSeen / kLiveUnseen (the final
  /// states of layer |T| are live seen) and kEpsAccept, combined over the
  /// coordinate's steps by BitsThrough. Throws std::invalid_argument on an
  /// item the table does not hold.
  void Walk(const Sequence& T, ItemId pivot, std::vector<WalkStep>* steps,
            std::vector<uint8_t>* bits) const;

 private:
  // An edge's output set, labels_[begin, begin + size); begin kNoEdge is
  // "no edge".
  struct Cell {
    uint32_t begin;
    uint32_t size;
  };
  static constexpr uint32_t kNoEdge = UINT32_MAX;

  // The moves, and one column of cells per item of items_ (every item
  // 1..dict.size() when dense_).
  void Tabulate(const Fst& fst, const Dictionary& dict);

  StateId initial_ = 0;
  std::vector<uint8_t> finals_;
  uint64_t prune_sigma_ = 0;
  size_t num_classes_ = 0;
  std::vector<uint32_t> move_begin_;  // num_states() + 1
  std::vector<Move> moves_;
  // Column c of item w: w - 1 when dense, w's index in items_ otherwise.
  bool dense_ = true;
  size_t num_items_ = 0;
  Sequence items_;
  std::vector<Cell> cells_;  // column-major: col * num_classes_ + cls
  std::vector<ItemId> labels_;
};

/// Sorts [first, last), already sorted by `key_less`, by `less`, which must
/// order key-equal elements within the key order: only runs of key-equal
/// elements are sorted. A walked coordinate's edges come out sorted by their
/// ends (the moves' order), so their sort by label is run-local.
template <typename It, typename KeyLess, typename Less>
void SortWithinRuns(It first, It last, KeyLess key_less, Less less) {
  while (first != last) {
    It run = first + 1;
    while (run != last && !key_less(*first, *run)) ++run;
    if (run - first > 1) std::sort(first, run, less);
    first = run;
  }
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

  /// Builds the pruned grid for `T` from a job's step table: the table's
  /// walk with no pivot, then, if (0, initial) is live, one forward pass
  /// over the forward-active coordinates that marks them and appends the
  /// edges from a live coordinate into a live one, each (from, to, out)
  /// once. Throws std::invalid_argument on an item the table does not hold.
  static StateGrid Build(const Sequence& T, const StepTable& table);

  /// Builds the pruned grid for `T` under `fst`: the same loop over a table
  /// of T's own distinct items.
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
  bool Alive(size_t pos, StateId q) const;

  /// True iff coordinate (pos, q) is forward-reachable from (0, initial),
  /// regardless of whether an accepting run passes through it; false
  /// everywhere on a grid without an accepting run. Used by the D-SEQ
  /// rewriter's trailing-trim safety check.
  bool ForwardActive(size_t pos, StateId q) const;

  /// True iff coordinate (pos, q) is forward-active and T can finish from
  /// it in a final state over ε-output edges only (so it is alive too).
  /// Used by the same check.
  bool EpsAccept(size_t pos, StateId q) const;

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
  // (length+1) x num_states: the walk's bits (pivot.h) and grid.cc's
  // forward-active bit.
  std::vector<uint8_t> bits_;
  std::vector<Edge> edges_;        // in coordinate order
  std::vector<uint32_t> offsets_;  // (length+1) x num_states, plus end
  std::vector<uint8_t> finals_;
};

}  // namespace dseq

#endif  // DSEQ_CORE_GRID_H_
