#include "src/core/grid.h"

#include <algorithm>

#include "src/util/check.h"

namespace dseq {

StateGrid StateGrid::Build(const Sequence& T, const Fst& fst,
                           const Dictionary& dict,
                           const GridOptions& options) {
  StateGrid grid;
  size_t n = T.size();
  size_t ns = fst.num_states();
  grid.length_ = n;
  grid.num_states_ = ns;
  grid.initial_ = fst.initial();
  grid.finals_.resize(ns);
  for (StateId q = 0; q < ns; ++q) grid.finals_[q] = fst.IsFinal(q);
  grid.alive_.assign((n + 1) * ns, false);
  grid.offsets_.assign((n + 1) * ns + 1, 0);
  if (ns == 0) return grid;

  // Forward simulation, one coordinate c = i * ns + q at a time in
  // coordinate order.
  grid.forward_active_.assign((n + 1) * ns, false);
  std::vector<bool>& active = grid.forward_active_;
  std::vector<bool>& alive = grid.alive_;
  std::vector<uint32_t>& offsets = grid.offsets_;
  std::vector<Edge>& edges = grid.edges_;
  active[fst.initial()] = true;
  Sequence out;
  for (size_t i = 0; i < n; ++i) {
    const ItemId t = T[i];
    for (StateId q = 0; q < ns; ++q) {
      const size_t begin = edges.size();
      offsets[i * ns + q] = static_cast<uint32_t>(begin);
      if (!active[i * ns + q]) continue;
      for (const Transition& tr : fst.From(q)) {
        if (!StepTransition(fst, tr, t, dict, options.prune_sigma, &out)) {
          continue;
        }
        active[(i + 1) * ns + tr.to] = true;
        edges.push_back(Edge{q, tr.to, out});
      }
      // Deduplicate edges (distinct FST transitions can collapse to the same
      // (from, to, output-set) edge, which would inflate run enumeration).
      if (edges.size() - begin < 2) continue;
      std::sort(edges.begin() + begin, edges.end(),
                [](const Edge& a, const Edge& b) {
                  if (a.to != b.to) return a.to < b.to;
                  return a.out < b.out;
                });
      edges.erase(std::unique(edges.begin() + begin, edges.end(),
                              [](const Edge& a, const Edge& b) {
                                return a.to == b.to && a.out == b.out;
                              }),
                  edges.end());
    }
  }
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
  if (!grid.accepting_ || !alive[fst.initial()]) {
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
