#include "src/core/grid.h"

#include <algorithm>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "src/core/pivot.h"
#include "src/util/check.h"

namespace dseq {

namespace {

// One step of the FST simulation on input item `t`: true iff `tr` matches
// `t` and yields an edge, whose sorted output set (empty = ε) is left in
// `*out`, σ-pruned by StepTable's rule. Only the table's build calls it.
bool StepTransition(const Fst& fst, const Transition& tr, ItemId t,
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

// The grid's own bit next to the walk's (pivot.h): reached from
// (0, initial).
constexpr uint8_t kForwardActive = 8;

// A transition's class: everything but its endpoints.
auto ClassKey(const Transition& tr) {
  return std::make_tuple(tr.in_kind, tr.in_item, tr.out_kind, tr.out_item);
}

}  // namespace

StepTable::StepTable(const Fst& fst, const Dictionary& dict,
                     uint64_t prune_sigma)
    : prune_sigma_(prune_sigma) {
  Tabulate(fst, dict);
}

StepTable::StepTable(const Fst& fst, const Dictionary& dict,
                     uint64_t prune_sigma, Sequence items)
    : prune_sigma_(prune_sigma), dense_(false), items_(std::move(items)) {
  DSEQ_DCHECK(std::is_sorted(items_.begin(), items_.end()));
  Tabulate(fst, dict);
}

void StepTable::Tabulate(const Fst& fst, const Dictionary& dict) {
  const size_t ns = fst.num_states();
  initial_ = fst.initial();
  finals_.resize(ns);
  for (StateId q = 0; q < ns; ++q) finals_[q] = fst.IsFinal(q);

  // Classes, numbered in order of first appearance; `reps` holds one
  // transition of each.
  std::vector<Transition> reps;
  move_begin_.assign(ns + 1, 0);
  for (StateId q = 0; q < ns; ++q) {
    for (const Transition& tr : fst.From(q)) {
      uint32_t cls = 0;
      while (cls < reps.size() && ClassKey(reps[cls]) != ClassKey(tr)) ++cls;
      if (cls == reps.size()) reps.push_back(tr);
      moves_.push_back(Move{tr.to, cls});
    }
    move_begin_[q + 1] = static_cast<uint32_t>(moves_.size());
    std::sort(moves_.begin() + move_begin_[q], moves_.end(),
              [](const Move& a, const Move& b) {
                return a.to != b.to ? a.to < b.to : a.cls < b.cls;
              });
  }
  num_classes_ = reps.size();

  num_items_ = dense_ ? dict.size() : items_.size();
  cells_.resize(num_items_ * num_classes_);
  Sequence out;
  for (size_t col = 0; col < num_items_; ++col) {
    const ItemId w = dense_ ? static_cast<ItemId>(col + 1) : items_[col];
    if (w == kNoItem || w > dict.size()) {
      throw std::invalid_argument("item id outside the dictionary");
    }
    for (size_t cls = 0; cls < num_classes_; ++cls) {
      Cell& cell = cells_[col * num_classes_ + cls];
      if (!StepTransition(fst, reps[cls], w, dict, prune_sigma_, &out)) {
        cell = Cell{kNoEdge, 0};
        continue;
      }
      cell = Cell{static_cast<uint32_t>(labels_.size()),
                  static_cast<uint32_t>(out.size())};
      labels_.insert(labels_.end(), out.begin(), out.end());
    }
  }
  DSEQ_CHECK_LT(labels_.size(), size_t{kNoEdge});
}

size_t StepTable::Column(ItemId w) const {
  if (dense_) {
    if (w == kNoItem || w > num_items_) {
      throw std::invalid_argument("item id outside the dictionary");
    }
    return w - 1;
  }
  auto it = std::lower_bound(items_.begin(), items_.end(), w);
  if (it == items_.end() || *it != w) {
    throw std::invalid_argument("item not in the step table");
  }
  return it - items_.begin();
}

StateGrid StateGrid::Build(const Sequence& T, const Fst& fst,
                           const Dictionary& dict,
                           const GridOptions& options) {
  Sequence items = T;
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());
  return Build(T, StepTable(fst, dict, options.prune_sigma, std::move(items)));
}

void StepTable::Walk(const Sequence& T, ItemId pivot,
                     std::vector<WalkStep>* steps,
                     std::vector<uint8_t>* bits) const {
  const size_t n = T.size();
  const size_t ns = num_states();
  const size_t nc = num_classes_;

  // Every position's step of every class, cut to the pivot (TestPivotEdge's
  // label, out ∩ [0, k]): one cut per cell instead of one per edge. With no
  // pivot no label is read.
  steps->resize(n * nc);
  for (size_t i = 0; i < n; ++i) {
    const Cell* const cells = &cells_[Column(T[i]) * nc];
    WalkStep* const row = steps->data() + i * nc;
    for (size_t cls = 0; cls < nc; ++cls) {
      const Cell& cell = cells[cls];
      WalkStep& step = row[cls];
      step = WalkStep{cell.begin, cell.size, kItemStep};
      if (cell.begin == kNoEdge) {
        step.kind = kNoStep;
      } else if (cell.size == 0) {
        step.kind = kEpsStep;
      } else if (pivot != kNoItem) {
        const ItemId* const out = labels_.data() + cell.begin;
        if (out[cell.size - 1] > pivot) {
          step.label_size = static_cast<uint32_t>(
              std::upper_bound(out, out + cell.size, pivot) - out);
        }
        if (step.label_size == 0) {
          step.kind = kCutStep;
        } else if (out[step.label_size - 1] == pivot) {
          step.kind = kPivotStep;
        }
      }
    }
  }

  // Backward over every coordinate: the bits of layer i from layer i + 1's.
  bits->assign((n + 1) * ns, 0);
  uint8_t* const b = bits->data();
  for (StateId q = 0; q < ns; ++q) {
    if (IsFinal(q)) b[n * ns + q] = kLiveSeen | kEpsAccept;
  }
  for (size_t i = n; i-- > 0;) {
    const WalkStep* const row = steps->data() + i * nc;
    const uint8_t* const next = b + (i + 1) * ns;
    for (StateId q = 0; q < ns; ++q) {
      uint8_t through = 0;
      for (const Move& m : MovesFrom(q)) {
        const StepKind kind = row[m.cls].kind;
        if (kind < kEpsStep) continue;
        through |= BitsThrough(next[m.to], kind == kEpsStep,
                               kind == kPivotStep);
      }
      b[i * ns + q] = through;
    }
  }
}

StateGrid StateGrid::Build(const Sequence& T, const StepTable& table) {
  StateGrid grid;
  const size_t n = T.size();
  const size_t ns = table.num_states();
  grid.length_ = n;
  grid.num_states_ = ns;
  grid.initial_ = table.initial();
  grid.finals_.resize(ns);
  for (StateId q = 0; q < ns; ++q) grid.finals_[q] = table.IsFinal(q);
  grid.offsets_.assign((n + 1) * ns + 1, 0);
  if (ns == 0) return grid;

  thread_local std::vector<StepTable::WalkStep> steps;
  table.Walk(T, kNoItem, &steps, &grid.bits_);
  uint8_t* const bits = grid.bits_.data();
  if ((bits[grid.initial_] & kLiveSeen) == 0) return grid;
  grid.accepting_ = true;

  // Forward over the forward-active coordinates. An edge into a live
  // coordinate leaves a live one, so the target's bit alone decides. Moves
  // are sorted by (to, class), so a coordinate's edges come out sorted by
  // `to`, and an identical (to, out) edge is caught within its run of `to`.
  const size_t nc = table.num_classes();
  const ItemId* const pool = table.label_pool();
  std::vector<Edge>& edges = grid.edges_;
  auto to_less = [](const Edge& a, const Edge& b) { return a.to < b.to; };
  auto out_less = [](const Edge& a, const Edge& b) { return a.out < b.out; };
  bits[grid.initial_] |= kForwardActive;
  for (size_t i = 0; i < n; ++i) {
    const StepTable::WalkStep* const row = steps.data() + i * nc;
    uint8_t* const next = bits + (i + 1) * ns;
    for (StateId q = 0; q < ns; ++q) {
      const size_t first = edges.size();
      grid.offsets_[i * ns + q] = static_cast<uint32_t>(first);
      if ((bits[i * ns + q] & kForwardActive) == 0) continue;
      size_t run = first;
      StateId run_to = ns;
      for (const StepTable::Move& m : table.MovesFrom(q)) {
        const StepTable::WalkStep& step = row[m.cls];
        if (step.kind < StepTable::kEpsStep) continue;
        next[m.to] |= kForwardActive;
        if ((next[m.to] & kLiveSeen) == 0) continue;
        const ItemId* const label = pool + step.label_begin;
        if (m.to != run_to) {
          run_to = m.to;
          run = edges.size();
        } else if (std::any_of(edges.begin() + run, edges.end(),
                               [&](const Edge& e) {
                                 return std::equal(e.out.begin(), e.out.end(),
                                                   label,
                                                   label + step.label_size);
                               })) {
          continue;
        }
        edges.push_back(
            Edge{q, m.to, Sequence(label, label + step.label_size)});
      }
      SortWithinRuns(edges.begin() + first, edges.end(), to_less, out_less);
    }
  }
  DSEQ_CHECK_LE(edges.size(), size_t{UINT32_MAX});
  std::fill(grid.offsets_.begin() + n * ns, grid.offsets_.end(),
            static_cast<uint32_t>(edges.size()));
  return grid;
}

bool StateGrid::Alive(size_t pos, StateId q) const {
  const uint8_t b = bits_[pos * num_states_ + q];
  return (b & kForwardActive) != 0 && (b & kLiveSeen) != 0;
}

bool StateGrid::ForwardActive(size_t pos, StateId q) const {
  return (bits_[pos * num_states_ + q] & kForwardActive) != 0;
}

bool StateGrid::EpsAccept(size_t pos, StateId q) const {
  const uint8_t b = bits_[pos * num_states_ + q];
  return (b & kForwardActive) != 0 && (b & kEpsAccept) != 0;
}

}  // namespace dseq
