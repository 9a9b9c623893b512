#include "src/core/grid.h"

#include <algorithm>
#include <stdexcept>
#include <tuple>
#include <utility>

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

StateGrid StateGrid::Build(const Sequence& T, const StepTable& table) {
  StateGrid grid;
  size_t n = T.size();
  size_t ns = table.num_states();
  grid.length_ = n;
  grid.num_states_ = ns;
  grid.initial_ = table.initial();
  grid.finals_.resize(ns);
  for (StateId q = 0; q < ns; ++q) grid.finals_[q] = table.IsFinal(q);
  grid.alive_.assign((n + 1) * ns, false);
  grid.offsets_.assign((n + 1) * ns + 1, 0);
  if (ns == 0) return grid;

  // Forward simulation. Each layer's edges come out sorted by (from, to);
  // the layer is then sorted by (from, to, out) and deduplicated (distinct
  // FST transitions can collapse to the same edge, which would inflate run
  // enumeration). Only the layers' first offsets are set here, for EdgesAt;
  // the compaction below sets the rest.
  std::vector<uint8_t>& active = grid.forward_active_;
  std::vector<bool>& alive = grid.alive_;
  std::vector<uint32_t>& offsets = grid.offsets_;
  std::vector<Edge>& edges = grid.edges_;
  auto ends_less = [](const Edge& a, const Edge& b) {
    return a.from != b.from ? a.from < b.from : a.to < b.to;
  };
  auto less = [&](const Edge& a, const Edge& b) {
    if (a.from != b.from || a.to != b.to) return ends_less(a, b);
    return a.out < b.out;
  };
  size_t begin = 0;
  table.Simulate(
      T, &active,
      [&](size_t, StateId from, StateId to, Span<ItemId> label) {
        edges.push_back(Edge{from, to, Sequence(label.begin(), label.end())});
      },
      [&](size_t i) {
        offsets[i * ns] = static_cast<uint32_t>(begin);
        auto first = edges.begin() + begin;
        SortWithinRuns(first, edges.end(), ends_less, less);
        edges.erase(std::unique(first, edges.end(),
                                [](const Edge& a, const Edge& b) {
                                  return a.from == b.from && a.to == b.to &&
                                         a.out == b.out;
                                }),
                    edges.end());
        begin = edges.size();
      });
  DSEQ_CHECK_LE(edges.size(), size_t{UINT32_MAX});
  std::fill(offsets.begin() + n * ns, offsets.end(),
            static_cast<uint32_t>(edges.size()));

  // Backward pruning: keep only coordinates that reach an accepting
  // (n, q ∈ F) coordinate.
  for (StateId q = 0; q < ns; ++q) {
    if (active[n * ns + q] && grid.finals_[q]) {
      alive[n * ns + q] = true;
      grid.accepting_ = true;
    }
  }
  for (size_t i = n; grid.accepting_ && i-- > 0;) {
    for (const Edge& e : grid.EdgesAt(i)) {
      if (alive[(i + 1) * ns + e.to]) alive[i * ns + e.from] = true;
    }
  }
  // A grid is accepting only if layer 0 retained the initial state.
  if (!grid.accepting_ || !alive[grid.initial_]) {
    grid.accepting_ = false;
    edges.clear();
    std::fill(offsets.begin(), offsets.end(), 0);
    std::fill(alive.begin(), alive.end(), false);
    return grid;
  }

  // Compaction: move the edges into an alive coordinate to the front, layer
  // by layer, and set each coordinate's offset to where its first kept edge
  // lands (edges are sorted by source within a layer).
  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t begin = offsets[i * ns];
    const size_t end = offsets[(i + 1) * ns];
    uint32_t* const layer = &offsets[i * ns];
    StateId next = 0;  // the first state of layer i without an offset yet
    for (size_t g = begin; g < end; ++g) {
      if (!alive[(i + 1) * ns + edges[g].to]) continue;
      const StateId from = edges[g].from;
      while (next <= from) layer[next++] = static_cast<uint32_t>(kept);
      if (g != kept) edges[kept] = std::move(edges[g]);
      ++kept;
    }
    while (next < ns) layer[next++] = static_cast<uint32_t>(kept);
  }
  edges.erase(edges.begin() + kept, edges.end());
  std::fill(offsets.begin() + n * ns, offsets.end(),
            static_cast<uint32_t>(kept));

#if DSEQ_DCHECK_IS_ON
  DSEQ_CHECK_EQ(offsets.back(), edges.size());
  for (size_t c = 0; c < n * ns; ++c) {
    DSEQ_CHECK_LE(offsets[c], offsets[c + 1]);
    for (const Edge& e : grid.EdgesOf(c)) DSEQ_CHECK_EQ(e.from, c % ns);
  }
#endif
  return grid;
}

}  // namespace dseq
