#include "src/core/pivot.h"

#include <algorithm>

namespace dseq {

void PivotSet::UnionWith(const PivotSet& other) {
  has_eps = has_eps || other.has_eps;
  if (other.items.empty()) return;
  if (items.empty()) {
    items = other.items;
    return;
  }
  // Merge into a scratch small-vector: inline (allocation-free) unless the
  // union spills past the inline capacity.
  PivotItemVec merged;
  merged.reserve(items.size() + other.items.size());
  std::set_union(items.begin(), items.end(), other.items.begin(),
                 other.items.end(), std::back_inserter(merged));
  items = std::move(merged);
}

namespace {

// U ⊕ Q over sorted, duplicate-free item ranges. min(Q) = ε if Q contains ε,
// else its smallest item. An element ω of U survives iff ω >= min(Q), i.e.
// all of U if Q has ε, else ω >= Q's first item. Each survivor set is a
// sorted tail range of its side, so the union is written straight into the
// result — no temporaries. Both sides must be non-empty.
template <typename UIt, typename QIt>
PivotSet MergeRanges(bool u_eps, UIt ubegin, UIt uend, bool q_eps, QIt qbegin,
                     QIt qend) {
  PivotSet result;
  result.has_eps = u_eps && q_eps;
  UIt ufrom = q_eps ? ubegin : std::lower_bound(ubegin, uend, *qbegin);
  QIt qfrom = u_eps ? qbegin : std::lower_bound(qbegin, qend, *ubegin);
  result.items.reserve((uend - ufrom) + (qend - qfrom));
  std::set_union(ufrom, uend, qfrom, qend, std::back_inserter(result.items));
  return result;
}

}  // namespace

PivotSet PivotMerge(const PivotSet& u, const PivotSet& q) {
  if (u.IsEmpty() || q.IsEmpty()) return PivotSet{};
  return MergeRanges(u.has_eps, u.items.begin(), u.items.end(), q.has_eps,
                     q.items.begin(), q.items.end());
}

PivotSet PivotMerge(const PivotSet& u, Span<ItemId> out) {
  if (u.IsEmpty()) return PivotSet{};
  if (out.empty()) return u;
  return MergeRanges(u.has_eps, u.items.begin(), u.items.end(), false,
                     out.begin(), out.end());
}

PivotSet PivotsOfOutputSets(const std::vector<Sequence>& output_sets) {
  PivotSet acc = PivotSet::Eps();
  for (const Sequence& out : output_sets) {
    acc = PivotMerge(acc, out);
    if (acc.IsEmpty()) return acc;
  }
  return acc;
}

std::vector<PivotSet> ComputeForwardPivots(const StateGrid& grid) {
  size_t n = grid.length();
  size_t ns = grid.num_states();
  std::vector<PivotSet> fwd((n + 1) * ns);
  if (!grid.HasAcceptingRun()) return fwd;
  fwd[grid.initial_state()] = PivotSet::Eps();
  for (size_t i = 0; i < n; ++i) {
    for (const StateGrid::Edge& e : grid.EdgesAt(i)) {
      const PivotSet& prev = fwd[i * ns + e.from];
      if (prev.IsEmpty()) continue;
      PivotSet& to = fwd[(i + 1) * ns + e.to];
      if (e.out.empty()) {
        to.UnionWith(prev);
      } else {
        to.UnionWith(PivotMerge(prev, e.out));
      }
    }
  }
  return fwd;
}

std::vector<PivotSet> ComputeBackwardPivots(const StateGrid& grid) {
  size_t n = grid.length();
  size_t ns = grid.num_states();
  std::vector<PivotSet> bwd((n + 1) * ns);
  if (!grid.HasAcceptingRun()) return bwd;
  for (StateId q = 0; q < ns; ++q) {
    if (grid.Alive(n, q) && grid.IsFinalState(q)) {
      bwd[n * ns + q] = PivotSet::Eps();
    }
  }
  for (size_t i = n; i-- > 0;) {
    for (const StateGrid::Edge& e : grid.EdgesAt(i)) {
      const PivotSet& next = bwd[(i + 1) * ns + e.to];
      if (next.IsEmpty()) continue;
      PivotSet& from = bwd[i * ns + e.from];
      if (e.out.empty()) {
        from.UnionWith(next);
      } else {
        from.UnionWith(PivotMerge(next, e.out));
      }
    }
  }
  return bwd;
}

Sequence FindPivotItems(const StateGrid& grid) {
  if (!grid.HasAcceptingRun()) return {};
  std::vector<PivotSet> fwd = ComputeForwardPivots(grid);
  size_t n = grid.length();
  size_t ns = grid.num_states();
  PivotSet result;
  for (StateId q = 0; q < ns; ++q) {
    if (grid.Alive(n, q) && grid.IsFinalState(q)) {
      result.UnionWith(fwd[n * ns + q]);
    }
  }
  return result.items.ToSequence();  // ε (the empty candidate) is never a pivot
}

namespace {

// Raw DFS FST simulation for the no-grid ablation, over T's table columns.
struct NoGridSearch {
  const StepTable& table;
  std::vector<size_t> columns;
  uint64_t max_steps;
  uint64_t steps = 0;
  PivotSet result;

  bool Dfs(size_t i, StateId q, const PivotSet& acc) {
    if (++steps > max_steps) return false;
    if (i == columns.size()) {
      if (table.IsFinal(q)) result.UnionWith(acc);
      return true;
    }
    Span<ItemId> out(nullptr, 0);
    for (const StepTable::Move& m : table.MovesFrom(q)) {
      if (!table.Step(columns[i], m.cls, &out)) continue;
      PivotSet next = PivotMerge(acc, out);
      if (next.IsEmpty()) continue;
      if (!Dfs(i + 1, m.to, next)) return false;
    }
    return true;
  }
};

}  // namespace

bool FindPivotItemsNoGrid(const Sequence& T, const StepTable& table,
                          uint64_t max_steps, Sequence* pivots) {
  NoGridSearch search{table, {}, max_steps, 0, {}};
  pivots->clear();
  if (table.num_states() == 0) return true;
  for (ItemId t : T) search.columns.push_back(table.Column(t));
  bool complete = search.Dfs(0, table.initial(), PivotSet::Eps());
  *pivots = search.result.items.ToSequence();
  return complete;
}

}  // namespace dseq
