#include "src/core/grid.h"

#include <algorithm>

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
  grid.edges_.resize(n);
  grid.alive_.assign((n + 1) * ns, false);
  if (ns == 0) return grid;

  // Forward simulation.
  grid.forward_active_.assign((n + 1) * ns, false);
  std::vector<bool>& active = grid.forward_active_;
  active[fst.initial()] = true;
  Sequence out;
  for (size_t i = 0; i < n; ++i) {
    ItemId t = T[i];
    auto& layer_edges = grid.edges_[i];
    for (StateId q = 0; q < ns; ++q) {
      if (!active[i * ns + q]) continue;
      for (const Transition& tr : fst.From(q)) {
        if (!StepTransition(fst, tr, t, dict, options.prune_sigma, &out)) {
          continue;
        }
        active[(i + 1) * ns + tr.to] = true;
        layer_edges.push_back(Edge{q, tr.to, out});
      }
    }
    // Deduplicate edges (distinct FST transitions can collapse to the same
    // (from, to, output-set) edge, which would inflate run enumeration).
    std::sort(layer_edges.begin(), layer_edges.end(),
              [](const Edge& a, const Edge& b) {
                if (a.from != b.from) return a.from < b.from;
                if (a.to != b.to) return a.to < b.to;
                return a.out < b.out;
              });
    layer_edges.erase(std::unique(layer_edges.begin(), layer_edges.end(),
                                  [](const Edge& a, const Edge& b) {
                                    return a.from == b.from && a.to == b.to &&
                                           a.out == b.out;
                                  }),
                      layer_edges.end());
  }

  // Backward pruning: keep only coordinates that reach an accepting
  // (n, q ∈ F) coordinate.
  for (StateId q = 0; q < ns; ++q) {
    if (active[n * ns + q] && grid.finals_[q]) {
      grid.alive_[n * ns + q] = true;
      grid.accepting_ = true;
    }
  }
  if (!grid.accepting_) {
    for (auto& e : grid.edges_) e.clear();
    return grid;
  }
  for (size_t i = n; i-- > 0;) {
    auto& layer_edges = grid.edges_[i];
    layer_edges.erase(
        std::remove_if(layer_edges.begin(), layer_edges.end(),
                       [&](const Edge& e) {
                         return !grid.alive_[(i + 1) * ns + e.to];
                       }),
        layer_edges.end());
    for (const Edge& e : layer_edges) grid.alive_[i * ns + e.from] = true;
  }
  // A grid is accepting only if layer 0 retained the initial state.
  if (!grid.alive_[fst.initial()]) {
    grid.accepting_ = false;
    for (auto& e : grid.edges_) e.clear();
    std::fill(grid.alive_.begin(), grid.alive_.end(), false);
  }
  return grid;
}

size_t StateGrid::num_edges() const {
  size_t total = 0;
  for (const auto& layer : edges_) total += layer.size();
  return total;
}

std::vector<uint8_t> StateGrid::ComputeEpsAcceptTable() const {
  size_t n = length_;
  size_t ns = num_states_;
  std::vector<uint8_t> eps_accept((n + 1) * ns, 0);
  for (StateId q = 0; q < ns; ++q) {
    if (alive_[n * ns + q] && finals_[q]) eps_accept[n * ns + q] = 1;
  }
  for (size_t i = n; i-- > 0;) {
    for (const Edge& e : edges_[i]) {
      if (e.out.empty() && eps_accept[(i + 1) * ns + e.to]) {
        eps_accept[i * ns + e.from] = 1;
      }
    }
  }
  return eps_accept;
}

}  // namespace dseq
