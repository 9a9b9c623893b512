#include "src/core/candidates.h"

#include <algorithm>

namespace dseq {
namespace {

struct CandidateSearch {
  const StateGrid& grid;
  size_t budget;
  std::vector<Sequence>* out;
  Sequence prefix;
  bool within_budget = true;

  void Dfs(size_t i, StateId q) {
    if (!within_budget) return;
    if (i == grid.length()) {
      if (grid.IsFinalState(q) && !prefix.empty()) {
        if (out->size() >= budget) {
          within_budget = false;
          return;
        }
        out->push_back(prefix);
      }
      return;
    }
    for (const StateGrid::Edge& e : grid.EdgesOf(i * grid.num_states() + q)) {
      if (e.out.empty()) {
        Dfs(i + 1, e.to);
      } else {
        for (ItemId w : e.out) {
          prefix.push_back(w);
          Dfs(i + 1, e.to);
          prefix.pop_back();
          if (!within_budget) return;
        }
      }
      if (!within_budget) return;
    }
  }
};

struct RunSearch {
  const StateGrid& grid;
  uint64_t max_runs;
  const std::function<void(const std::vector<const StateGrid::Edge*>&)>& fn;
  std::vector<const StateGrid::Edge*> run;
  uint64_t count = 0;
  bool within_budget = true;

  void Dfs(size_t i, StateId q) {
    if (!within_budget) return;
    if (i == grid.length()) {
      if (grid.IsFinalState(q)) {
        if (count >= max_runs) {
          within_budget = false;
          return;
        }
        ++count;
        fn(run);
      }
      return;
    }
    for (const StateGrid::Edge& e : grid.EdgesOf(i * grid.num_states() + q)) {
      run.push_back(&e);
      Dfs(i + 1, e.to);
      run.pop_back();
      if (!within_budget) return;
    }
  }
};

}  // namespace

bool EnumerateCandidates(const StateGrid& grid, size_t budget,
                         std::vector<Sequence>* out) {
  out->clear();
  if (!grid.HasAcceptingRun()) return true;
  CandidateSearch search{grid, budget, out, {}, true};
  search.Dfs(0, grid.initial_state());
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
  return search.within_budget;
}

bool ForEachAcceptingRun(
    const StateGrid& grid, uint64_t max_runs,
    const std::function<void(const std::vector<const StateGrid::Edge*>&)>& fn) {
  if (!grid.HasAcceptingRun()) return true;
  RunSearch search{grid, max_runs, fn, {}, 0, true};
  search.Dfs(0, grid.initial_state());
  return search.within_budget;
}

}  // namespace dseq
