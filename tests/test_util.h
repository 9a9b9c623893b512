// Shared helpers for dseq tests: random databases, a brute-force reference
// miner, and result formatting.
#ifndef DSEQ_TESTS_TEST_UTIL_H_
#define DSEQ_TESTS_TEST_UTIL_H_

#include <dirent.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <iterator>
#include <random>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/grid.h"
#include "src/core/mining.h"
#include "src/core/pivot.h"
#include "src/dict/sequence.h"
#include "src/fst/compiler.h"

namespace dseq {
namespace testing {

/// Runs `fn(workers)` once per worker count, with a SCOPED_TRACE naming the
/// count — the shared worker sweep of the cross-check, partition-stats, and
/// property tests.
template <typename Fn>
inline void ForEachWorkerCount(const Fn& fn,
                               std::initializer_list<int> counts = {1, 2, 4,
                                                                    8}) {
  for (int workers : counts) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    fn(workers);
  }
}

/// Iteration count of the randomized property tests: `fallback` by default,
/// overridden by DSEQ_PROPERTY_ITERATIONS (the nightly CI job raises it).
inline int PropertyIterations(int fallback) {
  const char* env = std::getenv("DSEQ_PROPERTY_ITERATIONS");
  if (env == nullptr) return fallback;
  int value = std::atoi(env);
  return value > 0 ? value : fallback;
}

/// Memory budget of the out-of-core tests: `fallback` by default,
/// overridden by DSEQ_SPILL_TEST_BUDGET (the CI spill group lowers it to
/// squeeze the budget and force more spill runs and merge passes).
inline uint64_t SpillTestBudget(uint64_t fallback) {
  const char* env = std::getenv("DSEQ_SPILL_TEST_BUDGET");
  if (env == nullptr) return fallback;
  long long value = std::atoll(env);
  return value > 0 ? static_cast<uint64_t>(value) : fallback;
}

/// Entries in `dir` other than "." and "..". 0 for an unreadable dir.
inline size_t CountDirEntries(const std::string& dir) {
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return 0;
  size_t count = 0;
  while (dirent* entry = readdir(d)) {
    std::string name = entry->d_name;
    if (name != "." && name != "..") ++count;
  }
  closedir(d);
  return count;
}

/// A fresh temp directory (mkdtemp under the gtest temp dir), removed on
/// destruction with an EXPECT that it was left empty — the spill-file RAII
/// hygiene contract of the out-of-core tests.
class ScopedTempDir {
 public:
  ScopedTempDir() {
    std::string templ = ::testing::TempDir() + "dseq_spill_XXXXXX";
    std::vector<char> buf(templ.begin(), templ.end());
    buf.push_back('\0');
    char* made = mkdtemp(buf.data());
    EXPECT_NE(made, nullptr);
    path_ = made != nullptr ? made : "";
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;
  ~ScopedTempDir() {
    if (path_.empty()) return;
    EXPECT_EQ(CountDirEntries(path_), 0u) << "files leaked in " << path_;
    rmdir(path_.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Builds a random sequence database over `num_items` items named
/// "i0".."iN" with a random DAG hierarchy (parents always have smaller
/// insertion index, so the hierarchy is acyclic), recoded by frequency.
inline SequenceDatabase RandomDatabase(uint64_t seed, size_t num_items,
                                       size_t num_sequences, size_t max_length) {
  std::mt19937_64 rng(seed);
  DictionaryBuilder builder;
  std::vector<ItemId> items;
  for (size_t i = 0; i < num_items; ++i) {
    items.push_back(builder.AddItem("i" + std::to_string(i)));
  }
  for (size_t i = 1; i < num_items; ++i) {
    size_t num_parents = rng() % 3;  // 0, 1, or 2 parents
    for (size_t p = 0; p < num_parents; ++p) {
      builder.AddParent(items[i], items[rng() % i]);
    }
  }
  SequenceDatabase db;
  db.dict = builder.Build();
  for (size_t s = 0; s < num_sequences; ++s) {
    size_t len = 1 + rng() % max_length;
    Sequence seq;
    for (size_t j = 0; j < len; ++j) {
      seq.push_back(items[rng() % num_items]);
    }
    db.sequences.push_back(std::move(seq));
  }
  db.Recode();
  return db;
}

/// Reference FST step, straight from its definition (the rule StepTable
/// tabulates): true iff `tr` matches `t` and yields an edge, whose sorted
/// output set (empty = ε) is left in `*out`. With sigma > 0, items of
/// document frequency < sigma are removed, and a non-ε transition left with
/// no item yields no edge.
inline bool ReferenceStep(const Fst& fst, const Transition& tr, ItemId t,
                          const Dictionary& dict, uint64_t sigma,
                          Sequence* out) {
  if (!fst.Matches(tr, t, dict)) return false;
  fst.ComputeOutput(tr, t, dict, out);
  if (sigma == 0 || out->empty()) return true;
  Sequence kept;
  for (ItemId w : *out) {
    if (dict.DocFrequency(w) >= sigma) kept.push_back(w);
  }
  out->swap(kept);
  return !out->empty() || tr.out_kind == OutputKind::kEpsilon;
}

/// A reference grid: one edge vector per layer, and per coordinate
/// i * num_states + q whether it is reached from (0, initial) and whether
/// it is alive (reached and on an accepting run).
struct ReferenceGrid {
  std::vector<std::vector<StateGrid::Edge>> layers;
  std::vector<bool> reached;
  std::vector<bool> alive;
};

/// Reference grid, the forward-then-prune construction StateGrid::Build
/// replaced: one edge vector per layer, stepping every transition out of
/// every reached coordinate with ReferenceStep, sorted by (from, to, out)
/// and deduplicated, then pruned from the top layer down to the edges into
/// a coordinate on an accepting run; every layer is emptied, and no
/// coordinate is alive, if (0, initial) is not on one. `*pruned` counts the
/// edges the pruning removed from accepting grids. grid_test pins
/// StateGrid::Build against it.
inline ReferenceGrid ReferenceLayers(const Sequence& T, const Fst& fst,
                                     const Dictionary& dict, uint64_t sigma,
                                     size_t* pruned) {
  const size_t n = T.size();
  const size_t ns = fst.num_states();
  std::vector<std::vector<StateGrid::Edge>> layers(n);
  std::vector<bool> reached((n + 1) * ns, false);
  reached[fst.initial()] = true;
  Sequence out;
  for (size_t i = 0; i < n; ++i) {
    for (StateId q = 0; q < ns; ++q) {
      if (!reached[i * ns + q]) continue;
      for (const Transition& tr : fst.From(q)) {
        if (!ReferenceStep(fst, tr, T[i], dict, sigma, &out)) continue;
        reached[(i + 1) * ns + tr.to] = true;
        layers[i].push_back(StateGrid::Edge{q, tr.to, out});
      }
    }
    auto key = [](const StateGrid::Edge& e) {
      return std::tie(e.from, e.to, e.out);
    };
    std::sort(layers[i].begin(), layers[i].end(),
              [&](const auto& a, const auto& b) { return key(a) < key(b); });
    layers[i].erase(std::unique(layers[i].begin(), layers[i].end(),
                                [&](const auto& a, const auto& b) {
                                  return key(a) == key(b);
                                }),
                    layers[i].end());
  }
  std::vector<bool> alive((n + 1) * ns, false);
  for (StateId q = 0; q < ns; ++q) {
    alive[n * ns + q] = reached[n * ns + q] && fst.IsFinal(q);
  }
  size_t removed = 0;
  for (size_t i = n; i-- > 0;) {
    const size_t before = layers[i].size();
    layers[i].erase(std::remove_if(layers[i].begin(), layers[i].end(),
                                   [&](const StateGrid::Edge& e) {
                                     return !alive[(i + 1) * ns + e.to];
                                   }),
                    layers[i].end());
    removed += before - layers[i].size();
    for (const StateGrid::Edge& e : layers[i]) alive[i * ns + e.from] = true;
  }
  if (ns == 0 || !alive[fst.initial()]) {
    for (auto& layer : layers) layer.clear();
    alive.assign(alive.size(), false);
  } else {
    *pruned += removed;
  }
  return ReferenceGrid{std::move(layers), std::move(reached),
                       std::move(alive)};
}

/// Reference candidate search, a plain DFS over every accepting run:
/// appends every raw candidate of the grid to `*out` as a Sequence, one per
/// accepting run and choice of one item from each non-ε output set on it,
/// duplicates kept and the empty sequence skipped. Stops and returns false
/// when the (budget+1)-th raw candidate comes up. grid_test checks
/// ForEachCandidateKey against it.
inline bool ReferenceCandidates(const StateGrid& grid, size_t budget,
                                std::vector<Sequence>* out) {
  struct Search {
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
      for (const StateGrid::Edge& e :
           grid.EdgesOf(i * grid.num_states() + q)) {
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
  out->clear();
  if (!grid.HasAcceptingRun()) return true;
  Search search{grid, budget, out, {}, true};
  search.Dfs(0, grid.initial_state());
  return search.within_budget;
}

/// Brute-force reference miner: enumerates Gσπ(T) per sequence via the grid
/// (ReferenceCandidates, deduplicated per sequence) and counts
/// distinct-sequence support. Independent of the pattern-growth code paths
/// and of the library's candidate search.
inline MiningResult BruteForceMine(const std::vector<Sequence>& db,
                                   const Fst& fst, const Dictionary& dict,
                                   uint64_t sigma) {
  struct SeqHash {
    size_t operator()(const Sequence& s) const {
      size_t h = 1469598103934665603ULL;
      for (ItemId w : s) h = (h ^ w) * 1099511628211ULL;
      return h;
    }
  };
  std::unordered_map<Sequence, uint64_t, SeqHash> counts;
  GridOptions options;
  options.prune_sigma = sigma;
  for (const Sequence& T : db) {
    StateGrid grid = StateGrid::Build(T, fst, dict, options);
    if (!grid.HasAcceptingRun()) continue;
    std::vector<Sequence> candidates;
    ReferenceCandidates(grid, 10'000'000, &candidates);
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    for (const Sequence& s : candidates) counts[s] += 1;
  }
  MiningResult result;
  for (auto& [pattern, count] : counts) {
    if (count >= sigma) result.push_back(PatternCount{pattern, count});
  }
  Canonicalize(&result);
  return result;
}

/// Formats a mining result for readable gtest failure messages.
inline std::string Format(const MiningResult& result,
                          const Dictionary& dict) {
  std::string out;
  for (const PatternCount& pc : result) {
    for (size_t i = 0; i < pc.pattern.size(); ++i) {
      if (i > 0) out += ' ';
      out += dict.Name(pc.pattern[i]);
    }
    out += ":" + std::to_string(pc.frequency) + "\n";
  }
  return out;
}

/// Pattern expressions exercising captures, hierarchies, generalizations,
/// alternation, bounded gaps, and anchored/unanchored forms over items
/// i0..i5 (valid for RandomDatabase with num_items >= 6).
inline std::vector<std::string> PropertyPatterns() {
  return {
      ".*(i0).*",
      ".*(.^).*",
      ".*(.)[.*(.)]{0,2}.*",
      ".*(.^)[.{0,1}(.^)]{1,2}.*",
      ".*(i0)[(.^).*]*(i1).*",
      ".*[(i0)|(i1^)].*",
      "[.*(i0).*]|[.*(i1)(i2).*]",
      ".*(i0=)(.).*",
      ".*(i0^=)(i1?).*",
      "(.^){2}.*",
      ".*(i2^)[.{0,2}(i2^)]{1,3}.*",
      "(i0|i1|i2)(.*)",
      ".*((i0)|(i1^))(i2?).*",
      ".*[(i0)(i1)]{1,2}.*",
      ".*(i3)[(i4^)|.]*(i5).*",
      "[.{1,3}](i0^).*",
      ".*(i0^=)[.*(i1^=)]{0,2}.*",
      "(.)(.).*",
  };
}

/// Reference liveness over grid × {seen-k} for pivot k (kLiveSeen and
/// kLiveUnseen, src/core/pivot.h), by a backward pass layer by layer over
/// every edge: entry i * num_states + q has kLiveSeen (kLiveUnseen) set iff
/// some accepting suffix from (i, q) uses only ε and admissible edges
/// (TestPivotEdge) and ends with k output, given that k has (has not) been
/// output on the way to (i, q). pivot_test checks it against a brute-force
/// search of the suffixes; nfa_test's reference subset construction reads it.
inline std::vector<uint8_t> ReferencePivotLiveness(const StateGrid& grid,
                                                   ItemId pivot) {
  const size_t n = grid.length();
  const size_t ns = grid.num_states();
  std::vector<uint8_t> live((n + 1) * ns, 0);
  if (!grid.HasAcceptingRun()) return live;
  for (StateId q = 0; q < ns; ++q) {
    if (grid.Alive(n, q) && grid.IsFinalState(q)) live[n * ns + q] = kLiveSeen;
  }
  for (size_t i = n; i-- > 0;) {
    for (const StateGrid::Edge& e : grid.EdgesAt(i)) {
      uint8_t next = live[(i + 1) * ns + e.to];
      if (next == 0) continue;
      PivotEdge test = TestPivotEdge(e.out, pivot);
      if (test.kind == PivotEdge::kDead) continue;
      // Carrying k sets the bit, so both entry values reach a seen suffix.
      if (test.carries_pivot && (next & kLiveSeen)) {
        next = kLiveUnseen | kLiveSeen;
      }
      live[i * ns + e.from] |= next;
    }
  }
  return live;
}

/// Reference pivot-set union (not ⊕): the union of alternative runs'
/// pivot sets, on sorted item vectors.
inline void ReferenceUnion(PivotSet* into, const PivotSet& other) {
  into->has_eps = into->has_eps || other.has_eps;
  Sequence merged;
  std::set_union(into->items.begin(), into->items.end(), other.items.begin(),
                 other.items.end(), std::back_inserter(merged));
  into->items = std::move(merged);
}

/// Reference pivot DPs on item-vector sets, the tables PivotDp keeps as
/// bitsets: forward K(i,q) (pivots of the run prefixes from (0, initial) to
/// (i,q)) and backward B(i,q) (pivots of the run suffixes from (i,q) to an
/// accepting end), folding PivotMerge per edge and ReferenceUnion per
/// coordinate. Indexed i * num_states + q; coordinates off every accepting
/// run hold the empty set. pivot_test checks PivotDp against them per
/// coordinate; rewrite_test's ReferenceRewriter reads them.
inline std::vector<PivotSet> ReferenceForwardPivots(const StateGrid& grid) {
  const size_t n = grid.length();
  const size_t ns = grid.num_states();
  std::vector<PivotSet> fwd((n + 1) * ns);
  if (!grid.HasAcceptingRun()) return fwd;
  fwd[grid.initial_state()] = PivotSet::Eps();
  for (size_t i = 0; i < n; ++i) {
    for (const StateGrid::Edge& e : grid.EdgesAt(i)) {
      const PivotSet& prev = fwd[i * ns + e.from];
      if (prev.IsEmpty()) continue;
      ReferenceUnion(&fwd[(i + 1) * ns + e.to], PivotMerge(prev, e.out));
    }
  }
  return fwd;
}

inline std::vector<PivotSet> ReferenceBackwardPivots(const StateGrid& grid) {
  const size_t n = grid.length();
  const size_t ns = grid.num_states();
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
      ReferenceUnion(&bwd[i * ns + e.from], PivotMerge(next, e.out));
    }
  }
  return bwd;
}

}  // namespace testing
}  // namespace dseq

#endif  // DSEQ_TESTS_TEST_UTIL_H_
