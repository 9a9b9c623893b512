#include "src/core/candidates.h"

#include <algorithm>
#include <limits>
#include <string>

#include "src/util/varint.h"

namespace dseq {
namespace {

// The one candidate search (see the header): a depth-first walk of the grid
// that keeps the prefix as its delta-zigzag varint body and collects the
// distinct keys of one sequence.
class KeySearch {
 public:
  KeySearch(const StateGrid& grid, uint64_t budget)
      : grid_(grid),
        budget_(budget == 0 ? std::numeric_limits<uint64_t>::max() : budget),
        table_(kInitialSlots) {}

  // Runs the search; false iff the grid has more than `budget` raw
  // candidates.
  bool Run() {
    CountEpsilonTails();
    Dfs(0, grid_.initial_state(), 0, 0);
    return within_budget_;
  }

  // The distinct keys, in the order they were first reached.
  template <typename Fn>
  void ForEachKey(const Fn& fn) const {
    size_t start = 0;
    for (size_t end : ends_) {
      fn(std::string_view(keys_.data() + start, end - start));
      start = end;
    }
  }

 private:
  // A table slot: the low 32 bits of a key's hash and 1 + its index in
  // ends_ (0 = empty slot).
  struct Slot {
    uint32_t hash = 0;
    uint32_t index = 0;
  };
  static constexpr size_t kInitialSlots = 16;
  // eps_tails_ entry of a coordinate with a non-ε edge on some path below.
  static constexpr uint64_t kOutputs = std::numeric_limits<uint64_t>::max();

  // Fills eps_tails_ bottom-up: for a coordinate from which no path to the
  // last layer outputs an item, the number of those paths that accept
  // (saturating below kOutputs); for every other coordinate kOutputs. Every
  // accepting path below an ε tail yields the same candidate, the prefix,
  // so the search counts them at once instead of walking each (the
  // trailing `.*` of an unanchored pattern is such a tail).
  void CountEpsilonTails() {
    const size_t n = grid_.length();
    const size_t ns = grid_.num_states();
    eps_tails_.assign((n + 1) * ns, 0);
    for (StateId q = 0; q < ns; ++q) {
      eps_tails_[n * ns + q] = grid_.IsFinalState(q) ? 1 : 0;
    }
    for (size_t c = n * ns; c-- > 0;) {
      const uint64_t* below = &eps_tails_[(c / ns + 1) * ns];
      uint64_t paths = 0;
      for (const StateGrid::Edge& e : grid_.EdgesOf(c)) {
        if (!e.out.empty() || below[e.to] == kOutputs) {
          paths = kOutputs;
          break;
        }
        paths = std::min(paths, kOutputs - 1 - below[e.to]) + below[e.to];
      }
      eps_tails_[c] = paths;
    }
  }

  // `prev` is the last item of the prefix (0 while it is empty: PutSequence
  // codes the first item as its delta to 0), `len` its number of items.
  void Dfs(size_t i, StateId q, ItemId prev, uint64_t len) {
    const size_t c = i * grid_.num_states() + q;
    if (eps_tails_[c] != kOutputs) {
      if (len > 0 && eps_tails_[c] > 0) Leaf(len, eps_tails_[c]);
      return;
    }
    for (const StateGrid::Edge& e : grid_.EdgesOf(c)) {
      if (e.out.empty()) {
        Dfs(i + 1, e.to, prev, len);
      } else {
        const size_t mark = body_.size();
        for (ItemId w : e.out) {
          PutVarint(&body_, ZigzagEncode(static_cast<int64_t>(w) -
                                         static_cast<int64_t>(prev)));
          Dfs(i + 1, e.to, w, len + 1);
          body_.resize(mark);
          if (!within_budget_) return;
        }
      }
      if (!within_budget_) return;
    }
  }

  // `count` raw candidates equal to the prefix: writes its key behind the
  // distinct keys so far and keeps it unless the set already holds it.
  void Leaf(uint64_t len, uint64_t count) {
    if (count > budget_ - raw_) {
      within_budget_ = false;
      return;
    }
    raw_ += count;
    const size_t start = keys_.size();
    PutVarint(&keys_, len);
    keys_.append(body_);
    const std::string_view key(keys_.data() + start, keys_.size() - start);
    const uint32_t hash =
        static_cast<uint32_t>(std::hash<std::string_view>{}(key));
    if ((ends_.size() + 1) * 2 > table_.size()) Grow();
    const size_t mask = table_.size() - 1;
    size_t s = hash & mask;
    for (; table_[s].index != 0; s = (s + 1) & mask) {
      if (table_[s].hash == hash && KeyAt(table_[s].index - 1) == key) {
        keys_.resize(start);  // a duplicate: drop its bytes again
        return;
      }
    }
    ends_.push_back(keys_.size());
    table_[s] = {hash, static_cast<uint32_t>(ends_.size())};
  }

  std::string_view KeyAt(size_t index) const {
    const size_t start = index == 0 ? 0 : ends_[index - 1];
    return {keys_.data() + start, ends_[index] - start};
  }

  // Doubles the table, reinserting by the cached hashes.
  void Grow() {
    std::vector<Slot> old(table_.size() * 2);
    old.swap(table_);
    const size_t mask = table_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.index == 0) continue;
      size_t s = slot.hash & mask;
      while (table_[s].index != 0) s = (s + 1) & mask;
      table_[s] = slot;
    }
  }

  const StateGrid& grid_;
  const uint64_t budget_;
  uint64_t raw_ = 0;
  bool within_budget_ = true;
  std::vector<uint64_t> eps_tails_;  // per coordinate, see CountEpsilonTails
  std::string body_;          // varint deltas of the current prefix
  std::string keys_;          // distinct keys, back to back
  std::vector<size_t> ends_;  // end offset of each key in keys_
  std::vector<Slot> table_;   // power-of-two capacity, load ≤ 1/2
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

bool ForEachCandidateKey(const StateGrid& grid, uint64_t budget,
                         const std::function<void(std::string_view)>& fn) {
  if (!grid.HasAcceptingRun()) return true;
  KeySearch search(grid, budget);
  if (!search.Run()) return false;
  search.ForEachKey(fn);
  return true;
}

bool EnumerateCandidates(const StateGrid& grid, size_t budget,
                         std::vector<Sequence>* out) {
  out->clear();
  bool complete =
      ForEachCandidateKey(grid, budget, [out](std::string_view key) {
        size_t pos = 0;
        out->emplace_back();
        GetSequence(key, &pos, &out->back());
      });
  std::sort(out->begin(), out->end());
  return complete;
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
