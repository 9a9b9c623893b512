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

PivotSet PivotMerge(const PivotSet& u, const PivotSet& q) {
  if (u.IsEmpty() || q.IsEmpty()) return PivotSet{};
  PivotSet result;
  result.has_eps = u.has_eps && q.has_eps;

  // min(Q) = ε if Q contains ε, else its smallest item. An element ω of U
  // survives iff ω >= min(Q), i.e. all of U if Q has ε, else ω >= Q.front().
  // Each survivor set is a sorted tail range of its side, so the union is
  // written straight into the result — no temporaries.
  auto survivors = [](const PivotSet& from, const PivotSet& other)
      -> std::pair<PivotItemVec::const_iterator,
                   PivotItemVec::const_iterator> {
    if (other.has_eps) return {from.items.begin(), from.items.end()};
    ItemId min_other = other.items.front();
    auto it =
        std::lower_bound(from.items.begin(), from.items.end(), min_other);
    return {it, from.items.end()};
  };

  auto [ubegin, uend] = survivors(u, q);
  auto [qbegin, qend] = survivors(q, u);
  result.items.reserve((uend - ubegin) + (qend - qbegin));
  std::set_union(ubegin, uend, qbegin, qend,
                 std::back_inserter(result.items));
  return result;
}

PivotSet PivotsOfOutputSets(const std::vector<Sequence>& output_sets) {
  PivotSet acc = PivotSet::Eps();
  for (const Sequence& out : output_sets) {
    PivotSet next = out.empty() ? PivotSet::Eps() : PivotSet::Items(out);
    acc = PivotMerge(acc, next);
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
      PivotSet contrib =
          e.out.empty() ? prev
                        : PivotMerge(prev, PivotSet::Items(e.out));
      fwd[(i + 1) * ns + e.to].UnionWith(contrib);
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
      PivotSet contrib =
          e.out.empty() ? next
                        : PivotMerge(next, PivotSet::Items(e.out));
      bwd[i * ns + e.from].UnionWith(contrib);
    }
  }
  return bwd;
}

Sequence FindPivotItems(const StateGrid& grid) {
  if (!grid.HasAcceptingRun()) return {};
  return PivotItemsFromForward(grid, ComputeForwardPivots(grid));
}

Sequence PivotItemsFromForward(const StateGrid& grid,
                               const std::vector<PivotSet>& fwd) {
  if (!grid.HasAcceptingRun()) return {};
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

// Raw DFS FST simulation for the no-grid ablation.
struct NoGridSearch {
  const Sequence& T;
  const Fst& fst;
  const Dictionary& dict;
  uint64_t sigma;
  uint64_t max_steps;
  uint64_t steps = 0;
  PivotSet result;
  Sequence scratch_out;

  bool Dfs(size_t i, StateId q, const PivotSet& acc) {
    if (++steps > max_steps) return false;
    if (i == T.size()) {
      if (fst.IsFinal(q)) result.UnionWith(acc);
      return true;
    }
    for (const Transition& tr : fst.From(q)) {
      if (!fst.Matches(tr, T[i], dict)) continue;
      fst.ComputeOutput(tr, T[i], dict, &scratch_out);
      if (sigma > 0 && !scratch_out.empty()) {
        scratch_out.erase(
            std::remove_if(scratch_out.begin(), scratch_out.end(),
                           [&](ItemId w) {
                             return dict.DocFrequency(w) < sigma;
                           }),
            scratch_out.end());
        if (scratch_out.empty() && tr.out_kind != OutputKind::kEpsilon) {
          continue;
        }
      }
      PivotSet next =
          scratch_out.empty()
              ? acc
              : PivotMerge(acc, PivotSet::Items(scratch_out));
      if (next.IsEmpty()) continue;
      if (!Dfs(i + 1, tr.to, next)) return false;
    }
    return true;
  }
};

}  // namespace

bool FindPivotItemsNoGrid(const Sequence& T, const Fst& fst,
                          const Dictionary& dict, uint64_t sigma,
                          uint64_t max_steps, Sequence* pivots) {
  NoGridSearch search{T, fst, dict, sigma, max_steps, 0, {}, {}};
  bool complete = search.Dfs(0, fst.initial(), PivotSet::Eps());
  *pivots = search.result.items.ToSequence();
  return complete;
}

}  // namespace dseq
