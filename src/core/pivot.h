// Pivot search (paper Sec. V-A).
//
// The pivot item of a subsequence S is its maximum item w.r.t. the total
// order `<` (= its least frequent item = max fid). K(T) is the set of pivot
// items over all candidate subsequences Gσπ(T); D-SEQ sends (rewritten)
// copies of T to exactly the partitions K(T).
//
// This module implements:
//  * the commutative/associative "pivot merge" ⊕ on output sets (Theorem 1),
//  * the forward DP K(i,q) and backward DP B(i,q) over the position–state
//    grid (linear in |T| for a fixed FST), on bitsets over the grid's
//    ranked output items (PivotDp): ⊕ is a few word-level ANDs and ORs per
//    edge, and the same kernel settles PivotRewriter's rewrite bounds and
//    runs the no-grid search,
//  * for one pivot k, Theorem 1 as a per-edge test (TestPivotEdge) and the
//    liveness bits over grid × {seen-k}, with their one transfer rule
//    (BitsThrough), that the step table's walk, D-CAND's per-pivot NFA
//    construction and the pivot-k DESQ-DFS store compute,
//  * a no-grid variant that naively folds ⊕ over every accepting run
//    (exponential; kept for the Fig. 10a ablation).
#ifndef DSEQ_CORE_PIVOT_H_
#define DSEQ_CORE_PIVOT_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/core/grid.h"
#include "src/util/common.h"

namespace dseq {

/// A set of items plus an optional ε element; ε is smaller than every item.
/// Item vectors are sorted ascending and duplicate-free.
struct PivotSet {
  bool has_eps = false;
  Sequence items;

  bool IsEmpty() const { return !has_eps && items.empty(); }

  static PivotSet Eps() { return PivotSet{true, {}}; }
  static PivotSet Items(Sequence sorted_items) {
    return PivotSet{false, std::move(sorted_items)};
  }

  bool operator==(const PivotSet& o) const {
    return has_eps == o.has_eps && items == o.items;
  }
};

/// The paper's pivot merge: U ⊕ Q = {ω∈U | ω ≥ min Q} ∪ {ω∈Q | ω ≥ min U}.
/// If either side is empty (no ε, no items), the result is empty.
PivotSet PivotMerge(const PivotSet& u, const PivotSet& q);

/// U ⊕ out for an edge's sorted output set `out` (empty = ε), without
/// copying `out` into a PivotSet.
PivotSet PivotMerge(const PivotSet& u, Span<ItemId> out);

/// Theorem 1: pivots of a run given its output sets (empty vector = ε).
/// Folds ⊕ left to right starting from {ε}. (PivotMerge and this are ⊕ on
/// item vectors, for one run; the DP tables run on PivotDp's bitsets.)
PivotSet PivotsOfOutputSets(const std::vector<Sequence>& output_sets);

/// The pivot DPs of one grid on bitsets. Load ranks ε and the grid's d
/// distinct output items in item order, ε first (it is smaller than every
/// item); a set is then W = ⌈(d+1)/64⌉ words, bit r for rank r, and each
/// edge gets one mask (an ε output is the set {ε}). ⊕ is
/// (U & ≥min Q) | (Q & ≥min U) over W words, with no ε or empty-set case,
/// and ∪ is OR. The tables, by coordinate i * grid.num_states() + q (empty
/// off every accepting run): backward B(i,q), the pivots of run suffixes
/// from (i,q), so K(T) is B(0, initial) less ε; forward K(i,q), the pivots
/// of run prefixes to (i,q).
///
/// Ranks come from an item→rank array stamped per grid, so only the d
/// items are sorted, and every buffer keeps its capacity across loads.
/// FindPivotItems, FindPivotItemsNoGrid and PivotRewriter use the calling
/// thread's instance; each load overwrites the last.
class PivotDp {
 public:
  using Word = uint64_t;

  static PivotDp& ForThisThread();

  /// Ranks `grid`'s items, masks its edges and computes the backward table.
  /// `grid` must outlive the use of this load.
  void Load(const StateGrid& grid);
  void ComputeForward();

  size_t num_items() const { return items_.size(); }  // d
  size_t width() const { return width_; }             // W

  /// K(T), sorted ascending.
  Sequence Pivots() const { return Backward(grid_->initial_state()).items; }
  PivotSet Backward(size_t coord) const { return Decode(bwd_, coord); }
  PivotSet Forward(size_t coord) const { return Decode(fwd_, coord); }

  /// PivotRewriter's scans. BeginScan settles no pivot yet and returns
  /// |K(T)|. Departing(i, e) is out(e) ⊕ B(i+1, e.to), Arriving(i, e) is
  /// K(i, e.from) ⊕ out(e) (after ComputeForward), for edge e of layer i.
  /// Settle sets bounds[p] = value for every pivot of `set` ∩ K(T) not
  /// settled yet, p its index in Pivots(), and returns how many are left.
  size_t BeginScan();
  const Word* Departing(size_t i, const StateGrid::Edge& e);
  const Word* Arriving(size_t i, const StateGrid::Edge& e);
  size_t Settle(const Word* set, uint32_t value, std::vector<uint32_t>* bounds);

 private:
  friend bool FindPivotItemsNoGrid(const Sequence& T, const StepTable& table,
                                   uint64_t max_steps, Sequence* pivots);

  // mask_min_ of a label slot SetMask did not write (a no-grid cell
  // without an edge).
  static constexpr uint32_t kNoEdge = UINT32_MAX;

  // Ranks the items of every label fed to `for_each_label`, then sizes the
  // masks of `num_labels` labels for SetMask.
  template <typename ForEachLabel>
  void Rank(size_t num_labels, ForEachLabel&& for_each_label);
  void SetMask(size_t slot, Span<ItemId> label);
  // The kernel: dst ∪= u ⊕ label `slot`.
  void OrStep(const Word* u, size_t slot, Word* dst) const;
  // Folds OrStep over the grid's edges into `table`, from the top layer
  // down (backward) or up.
  void Fold(std::vector<Word>* table, bool backward);
  const Word* Through(const std::vector<Word>& table, size_t coord,
                      size_t slot);
  PivotSet Decode(const std::vector<Word>& table, size_t set) const;
  bool NoGridDfs(const StepTable& table, size_t i, StateId q);

  const StateGrid* grid_ = nullptr;
  std::vector<std::pair<uint32_t, uint32_t>> rank_;  // item: (stamp, rank)
  uint32_t stamp_ = 0;
  Sequence items_;  // of rank 1..d
  size_t width_ = 0;
  // Labels: the grid's edges, or the no-grid search's (position, class)
  // cells; per label W words and the min rank (or kNoEdge).
  std::vector<Word> masks_;
  std::vector<uint32_t> mask_min_;
  std::vector<Word> bwd_, fwd_;  // W words per coordinate
  std::vector<Word> merged_;     // Through's result
  std::vector<Word> keys_;       // K(T) (ε cleared) and its settled part
  std::vector<Word> settled_;
  size_t open_ = 0;
  // The no-grid search: W words per depth, then the union of the accepting
  // paths' sets; its labels per position and its remaining step budget.
  std::vector<Word> acc_;
  size_t num_classes_ = 0;
  uint64_t steps_left_ = 0;
};

/// K(T): all pivot items of the grid's candidate subsequences, sorted
/// ascending. Assumes the grid was built with the desired σ pruning.
Sequence FindPivotItems(const StateGrid& grid);

/// Theorem 1 read per edge, for one pivot k: k ∈ K(r) iff every non-ε output
/// set of run r has an item <= k and some output set contains k. An edge is
/// therefore ε (neutral), dead (min(out) > k: no run through it has pivot
/// k), or admissible. An admissible edge contributes the label out ∩ [0,k],
/// which is the first `label_size` items of the sorted `out`.
struct PivotEdge {
  enum Kind : uint8_t { kEpsilon, kAdmissible, kDead };
  Kind kind;
  uint32_t label_size;  // |out ∩ [0,k]|; 0 unless admissible
  bool carries_pivot;   // k ∈ out
};
inline PivotEdge TestPivotEdge(const Sequence& out, ItemId pivot) {
  if (out.empty()) return PivotEdge{PivotEdge::kEpsilon, 0, false};
  size_t size = std::upper_bound(out.begin(), out.end(), pivot) - out.begin();
  if (size == 0) return PivotEdge{PivotEdge::kDead, 0, false};
  return PivotEdge{PivotEdge::kAdmissible, static_cast<uint32_t>(size),
                   out[size - 1] == pivot};
}

/// Liveness bits over grid × {seen-k} for one pivot k, one per value of the
/// seen-k bit: coordinate (i, q) has kLiveSeen (kLiveUnseen) set iff some
/// accepting suffix from (i, q) uses only ε and admissible edges
/// (TestPivotEdge) and ends with k output, given that k has (has not) been
/// output on the way to (i, q). In particular (0, initial) is kLiveUnseen
/// iff k ∈ K(T). StepTable::Walk, PivotNfaBuilder and DfsInput each compute
/// them in one backward pass, with BitsThrough. With no pivot only kLiveSeen
/// is set: "on an accepting suffix".
inline constexpr uint8_t kLiveUnseen = 1;
inline constexpr uint8_t kLiveSeen = 2;
inline constexpr uint8_t kLive = kLiveUnseen | kLiveSeen;
/// A third per-coordinate bit of the same passes: the end of the sequence is
/// reachable in a final state over ε edges only.
inline constexpr uint8_t kEpsAccept = 4;

/// The seen-k transfer rule: the bits an edge gives its source in a
/// backward pass, from its target's. The liveness bits pass through; an
/// edge that carries k into a suffix live seen gives both (carrying k sets
/// the bit, so both entry values reach it); an ε edge also passes
/// kEpsAccept.
inline uint8_t BitsThrough(uint8_t target, bool eps, bool carries_pivot) {
  const uint8_t live = target & kLive;
  if (live == 0) return 0;
  if (eps) return live | (target & kEpsAccept);
  return carries_pivot && (live & kLiveSeen) ? kLive : live;
}

/// Ablation variant (Fig. 10a, "no grid"): enumerates accepting runs by raw
/// DFS over the FST (exploring dead ends, no memoization) and folds ⊕ per
/// run, stepping through the job's `table` (its prune_sigma prunes the
/// output sets). Returns false if more than `max_steps` simulation steps
/// were taken (guard against exponential blow-up); `*pivots` is then
/// incomplete. Throws std::invalid_argument on an item the table does not
/// hold.
bool FindPivotItemsNoGrid(const Sequence& T, const StepTable& table,
                          uint64_t max_steps, Sequence* pivots);

}  // namespace dseq

#endif  // DSEQ_CORE_PIVOT_H_
