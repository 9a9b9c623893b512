#include "src/core/pivot.h"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <string>

#include "src/core/candidates.h"
#include "src/core/mining.h"
#include "src/dict/sequence.h"
#include "src/fst/compiler.h"
#include "src/nfa/output_nfa.h"
#include "tests/test_util.h"

namespace dseq {
namespace {

constexpr char kPatternEx[] = ".*(A)[(.^).*]*(b).*";

PivotSet Items(Sequence s) { return PivotSet::Items(std::move(s)); }

TEST(PivotMergeTest, PaperExampleRun) {
  // Paper Sec. V-A: run r4 with output sets {b,c}-{A}-{d,a1} over the order
  // b < A < d < a1 < c has pivots {c, d, a1} = K(r4).
  SequenceDatabase db = MakeRunningExample();
  ItemId b = db.dict.ItemByName("b");
  ItemId A = db.dict.ItemByName("A");
  ItemId d = db.dict.ItemByName("d");
  ItemId a1 = db.dict.ItemByName("a1");
  ItemId c = db.dict.ItemByName("c");

  PivotSet result = PivotsOfOutputSets({{b, c}, {A}, {d, a1}});
  EXPECT_EQ(result.items, (Sequence{d, a1, c}));
  EXPECT_FALSE(result.has_eps);
}

TEST(PivotMergeTest, SingleSetAllPivots) {
  // A run of length 1: all items are pivots.
  PivotSet result = PivotsOfOutputSets({{1, 5}});
  EXPECT_EQ(result.items, (Sequence{1, 5}));
}

TEST(PivotMergeTest, TwoSets) {
  // r4'': {b,c}-{A}: pivots A and c (paper example; b < A < c as fids
  // 1 < 2 < 3 here).
  PivotSet result = PivotsOfOutputSets({{1, 3}, {2}});
  EXPECT_EQ(result.items, (Sequence{2, 3}));
}

TEST(PivotMergeTest, EpsilonSetsAreNeutral) {
  PivotSet result = PivotsOfOutputSets({{}, {3, 4}, {}});
  EXPECT_EQ(result.items, (Sequence{3, 4}));
  EXPECT_FALSE(result.has_eps);
}

TEST(PivotMergeTest, AllEpsilonGivesEps) {
  PivotSet result = PivotsOfOutputSets({{}, {}});
  EXPECT_TRUE(result.has_eps);
  EXPECT_TRUE(result.items.empty());
}

TEST(PivotMergeTest, EmptyOperandAnnihilates) {
  PivotSet empty;
  PivotSet some = Items({1, 2});
  EXPECT_TRUE(PivotMerge(empty, some).IsEmpty());
  EXPECT_TRUE(PivotMerge(some, empty).IsEmpty());
}

TEST(PivotMergeTest, Commutative) {
  std::mt19937_64 rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    auto random_set = [&]() {
      PivotSet s;
      s.has_eps = rng() % 3 == 0;
      size_t n = rng() % 4;
      for (size_t i = 0; i < n; ++i) {
        s.items.push_back(static_cast<ItemId>(rng() % 10 + 1));
      }
      std::sort(s.items.begin(), s.items.end());
      s.items.erase(std::unique(s.items.begin(), s.items.end()),
                    s.items.end());
      return s;
    };
    PivotSet u = random_set();
    PivotSet q = random_set();
    EXPECT_EQ(PivotMerge(u, q), PivotMerge(q, u));
  }
}

// The output-set overload is U ⊕ {ε} for an empty set and U ⊕ out
// otherwise, on sets on both sides of the inline capacity.
TEST(PivotMergeTest, OutputSetOverloadMatchesPivotSets) {
  std::mt19937_64 rng(29);
  auto random_items = [&](size_t max_size) {
    Sequence items;
    size_t n = rng() % (max_size + 1);
    for (size_t i = 0; i < n; ++i) {
      items.push_back(static_cast<ItemId>(rng() % 24 + 1));
    }
    std::sort(items.begin(), items.end());
    items.erase(std::unique(items.begin(), items.end()), items.end());
    return items;
  };
  for (int trial = 0; trial < 400; ++trial) {
    PivotSet u = PivotSet::Items(random_items(12));
    u.has_eps = rng() % 3 == 0;
    Sequence out = random_items(12);
    PivotSet q = out.empty() ? PivotSet::Eps() : PivotSet::Items(out);
    EXPECT_EQ(PivotMerge(u, out), PivotMerge(u, q));
  }
}

TEST(PivotMergeTest, Associative) {
  std::mt19937_64 rng(23);
  for (int trial = 0; trial < 200; ++trial) {
    auto random_set = [&]() {
      PivotSet s;
      s.has_eps = rng() % 3 == 0;
      size_t n = 1 + rng() % 3;
      for (size_t i = 0; i < n; ++i) {
        s.items.push_back(static_cast<ItemId>(rng() % 10 + 1));
      }
      std::sort(s.items.begin(), s.items.end());
      s.items.erase(std::unique(s.items.begin(), s.items.end()),
                    s.items.end());
      return s;
    };
    PivotSet a = random_set();
    PivotSet b = random_set();
    PivotSet c = random_set();
    EXPECT_EQ(PivotMerge(PivotMerge(a, b), c), PivotMerge(a, PivotMerge(b, c)));
  }
}

// Theorem 1 brute-force check: pivots via ⊕ equal the max items of the
// Cartesian product of random output-set lists.
TEST(PivotMergeTest, Theorem1AgainstBruteForce) {
  std::mt19937_64 rng(31);
  for (int trial = 0; trial < 300; ++trial) {
    size_t run_len = 1 + rng() % 5;
    std::vector<Sequence> sets(run_len);
    for (auto& s : sets) {
      size_t n = rng() % 3;  // may be empty (ε)
      for (size_t i = 0; i < n; ++i) {
        s.push_back(static_cast<ItemId>(rng() % 8 + 1));
      }
      std::sort(s.begin(), s.end());
      s.erase(std::unique(s.begin(), s.end()), s.end());
    }
    // Brute force: expand the Cartesian product (ε sets contribute nothing).
    std::vector<Sequence> partial = {{}};
    for (const Sequence& s : sets) {
      if (s.empty()) continue;
      std::vector<Sequence> next;
      for (const Sequence& p : partial) {
        for (ItemId w : s) {
          Sequence ext = p;
          ext.push_back(w);
          next.push_back(std::move(ext));
        }
      }
      partial = std::move(next);
    }
    PivotSet expected;
    for (const Sequence& cand : partial) {
      if (cand.empty()) {
        expected.has_eps = true;
      } else {
        expected.items.push_back(PivotItem(cand));
      }
    }
    std::sort(expected.items.begin(), expected.items.end());
    expected.items.erase(
        std::unique(expected.items.begin(), expected.items.end()),
        expected.items.end());

    EXPECT_EQ(PivotsOfOutputSets(sets), expected) << "trial " << trial;
  }
}

TEST(PivotSearchTest, RunningExamplePivots) {
  // Paper Fig. 3 (σ=2): K(T1)={a1,c}, K(T2)={a1} after σ-filter (e is
  // infrequent), K(T4)=∅ (a2 infrequent), K(T5)={a1}.
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  ItemId a1 = db.dict.ItemByName("a1");
  ItemId c = db.dict.ItemByName("c");
  GridOptions options;
  options.prune_sigma = 2;

  auto pivots = [&](size_t i) {
    StateGrid grid = StateGrid::Build(db.sequences[i], fst, db.dict, options);
    return FindPivotItems(grid);
  };
  EXPECT_EQ(pivots(0), (Sequence{a1, c}));
  EXPECT_EQ(pivots(1), (Sequence{a1}));
  EXPECT_EQ(pivots(2), Sequence{});
  EXPECT_EQ(pivots(3), Sequence{});
  EXPECT_EQ(pivots(4), (Sequence{a1}));
}

TEST(PivotSearchTest, UnfilteredPivotsOfT2) {
  // Without σ-filtering, K(T2) = {a1, e} (paper Fig. 5b).
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  StateGrid grid = StateGrid::Build(db.sequences[1], fst, db.dict, {});
  EXPECT_EQ(FindPivotItems(grid),
            (Sequence{db.dict.ItemByName("a1"), db.dict.ItemByName("e")}));
}

TEST(PivotEdgeTest, RunningExampleOutputSets) {
  // (.^) on a1 outputs {A, a1}; on e it outputs {e} (paper Fig. 5b).
  SequenceDatabase db = MakeRunningExample();
  ItemId A = db.dict.ItemByName("A");
  ItemId d = db.dict.ItemByName("d");
  ItemId a1 = db.dict.ItemByName("a1");
  ItemId e = db.dict.ItemByName("e");
  Sequence generalized = {A, a1};

  EXPECT_EQ(TestPivotEdge({}, a1).kind, PivotEdge::kEpsilon);
  EXPECT_EQ(TestPivotEdge({e}, a1).kind, PivotEdge::kDead);
  PivotEdge full = TestPivotEdge(generalized, a1);
  EXPECT_EQ(full.kind, PivotEdge::kAdmissible);
  EXPECT_EQ(full.label_size, 2u);
  EXPECT_TRUE(full.carries_pivot);
  PivotEdge at_min = TestPivotEdge(generalized, A);
  EXPECT_EQ(at_min.kind, PivotEdge::kAdmissible);
  EXPECT_EQ(at_min.label_size, 1u);
  EXPECT_TRUE(at_min.carries_pivot);
  PivotEdge between = TestPivotEdge(generalized, d);  // label {A}
  EXPECT_EQ(between.kind, PivotEdge::kAdmissible);
  EXPECT_EQ(between.label_size, 1u);
  EXPECT_FALSE(between.carries_pivot);
  PivotEdge above = TestPivotEdge(generalized, e);
  EXPECT_EQ(above.kind, PivotEdge::kAdmissible);
  EXPECT_EQ(above.label_size, 2u);
  EXPECT_FALSE(above.carries_pivot);
}

// Brute force for one liveness bit: does an accepting suffix from (i, q)
// pass every edge test and end with k output?
bool LiveByDfs(const StateGrid& grid, size_t i, StateId q, bool seen,
               ItemId k) {
  if (i == grid.length()) {
    return seen && grid.Alive(i, q) && grid.IsFinalState(q);
  }
  for (const StateGrid::Edge& e : grid.EdgesAt(i)) {
    if (e.from != q) continue;
    PivotEdge test = TestPivotEdge(e.out, k);
    if (test.kind == PivotEdge::kDead) continue;
    if (LiveByDfs(grid, i + 1, e.to, seen || test.carries_pivot, k)) {
      return true;
    }
  }
  return false;
}

// Checks, for every item k of `dict`, the reference liveness against the
// brute force at every coordinate, and that PivotNfaBuilder's one sweep
// finds k live at (0, initial), i.e. yields a non-empty DFA, iff k ∈ K(T).
void ExpectLivenessMatchesBruteForce(const StateGrid& grid,
                                     const Dictionary& dict) {
  const Sequence pivots = FindPivotItems(grid);
  const size_t ns = grid.num_states();
  PivotNfaBuilder builder(grid);
  for (ItemId k = 1; k <= dict.size(); ++k) {
    SCOPED_TRACE("pivot " + dict.Name(k));
    std::vector<uint8_t> live = testing::ReferencePivotLiveness(grid, k);
    ASSERT_EQ(live.size(), (grid.length() + 1) * ns);
    bool is_pivot = std::binary_search(pivots.begin(), pivots.end(), k);
    ASSERT_TRUE(builder.Build(k));
    EXPECT_EQ(!builder.empty(), is_pivot);
    EXPECT_EQ((live[grid.initial_state()] & kLiveUnseen) != 0, is_pivot);
    for (size_t i = 0; i <= grid.length(); ++i) {
      for (StateId q = 0; q < ns; ++q) {
        uint8_t bits = live[i * ns + q];
        EXPECT_EQ((bits & kLiveUnseen) != 0, LiveByDfs(grid, i, q, false, k))
            << "(" << i << ", " << q << ")";
        EXPECT_EQ((bits & kLiveSeen) != 0, LiveByDfs(grid, i, q, true, k))
            << "(" << i << ", " << q << ")";
      }
    }
  }
}

TEST(PivotLivenessTest, RunningExampleT2MatchesBruteForce) {
  // The unfiltered grid of T2 = e e a1 e a1 e b (paper Fig. 5b), whose
  // pivots are K(T2) = {a1, e}.
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  StateGrid grid = StateGrid::Build(db.sequences[1], fst, db.dict, {});
  ExpectLivenessMatchesBruteForce(grid, db.dict);
}

TEST(PivotLivenessTest, RandomGridsMatchBruteForce) {
  SequenceDatabase db = testing::RandomDatabase(41, 8, 12, 7);
  for (const std::string& pattern : testing::PropertyPatterns()) {
    Fst fst = CompileFst(pattern, db.dict);
    for (uint64_t sigma : {1, 2}) {
      SCOPED_TRACE("pattern=" + pattern + " sigma=" + std::to_string(sigma));
      GridOptions options;
      options.prune_sigma = sigma;
      for (const Sequence& T : db.sequences) {
        ExpectLivenessMatchesBruteForce(
            StateGrid::Build(T, fst, db.dict, options), db.dict);
      }
    }
  }
}

// Property: grid pivot search == pivots of brute-force candidates, for many
// random databases and patterns.
class PivotPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, std::string>> {};

TEST_P(PivotPropertyTest, GridMatchesBruteForce) {
  auto [seed, pattern] = GetParam();
  SequenceDatabase db = testing::RandomDatabase(seed, 8, 30, 8);
  Fst fst = CompileFst(pattern, db.dict);
  for (uint64_t sigma : {1, 2, 4}) {
    GridOptions options;
    options.prune_sigma = sigma;
    for (const Sequence& T : db.sequences) {
      StateGrid grid = StateGrid::Build(T, fst, db.dict, options);
      Sequence via_grid = FindPivotItems(grid);

      std::vector<Sequence> candidates;
      ASSERT_TRUE(EnumerateCandidates(grid, 1'000'000, &candidates));
      Sequence expected;
      for (const Sequence& s : candidates) expected.push_back(PivotItem(s));
      std::sort(expected.begin(), expected.end());
      expected.erase(std::unique(expected.begin(), expected.end()),
                     expected.end());

      EXPECT_EQ(via_grid, expected) << "sigma=" << sigma;

      // The no-grid ablation must agree as well.
      Sequence via_nogrid;
      ASSERT_TRUE(FindPivotItemsNoGrid(T, StepTable(fst, db.dict, sigma),
                                       100'000'000, &via_nogrid));
      EXPECT_EQ(via_nogrid, expected) << "sigma=" << sigma << " (no grid)";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomizedPivots, PivotPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::ValuesIn(testing::PropertyPatterns())));

// --- PivotDp's bitset tables against the item-vector oracle -----------------

// The grid's distinct output items, sorted: PivotDp's ranks 1..d (ε is
// rank 0).
Sequence DistinctOutputItems(const StateGrid& grid) {
  Sequence items;
  for (const StateGrid::Edge& e : grid.edges()) {
    items.insert(items.end(), e.out.begin(), e.out.end());
  }
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());
  return items;
}

// What the wide-alphabet sweep covered, so agreement proves something about
// every word width and every word boundary.
struct WidthCoverage {
  std::map<size_t, size_t> grids_by_width;  // W -> grids
  size_t no_accepting_run = 0;
  size_t eps_only = 0;  // accepting grids without output items
  // Per boundary rank r (the last and first bits of words 0/1 and 1/2):
  // sets holding the item of rank r, and sets whose smallest item it is
  // (where ⊕'s ≥min masks cut).
  std::map<size_t, size_t> holds_rank, min_at_rank;
  size_t nogrid_checked = 0;
};

constexpr size_t kBoundaryRanks[] = {63, 64, 127, 128};

void ExpectTablesMatchReference(const Sequence& T, const StateGrid& grid,
                                const StepTable& table, PivotDp* dp,
                                WidthCoverage* coverage) {
  const Sequence ranked = DistinctOutputItems(grid);
  dp->Load(grid);
  dp->ComputeForward();
  ASSERT_EQ(dp->num_items(), ranked.size());
  ASSERT_EQ(dp->width(), (ranked.size() + 1 + 63) / 64);
  if (!grid.HasAcceptingRun()) {
    ++coverage->no_accepting_run;
  } else if (ranked.empty()) {
    ++coverage->eps_only;
  } else {
    ++coverage->grids_by_width[dp->width()];
  }
  const std::vector<PivotSet> fwd = testing::ReferenceForwardPivots(grid);
  const std::vector<PivotSet> bwd = testing::ReferenceBackwardPivots(grid);
  ASSERT_EQ(fwd.size(), (grid.length() + 1) * grid.num_states());
  auto note = [&](const PivotSet& set) {
    for (size_t r : kBoundaryRanks) {
      if (r > ranked.size()) continue;
      const ItemId item = ranked[r - 1];
      if (std::binary_search(set.items.begin(), set.items.end(), item)) {
        ++coverage->holds_rank[r];
      }
      if (!set.has_eps && !set.items.empty() && set.items[0] == item) {
        ++coverage->min_at_rank[r];
      }
    }
  };
  for (size_t c = 0; c < fwd.size(); ++c) {
    ASSERT_EQ(dp->Backward(c), bwd[c]) << "backward, coordinate " << c;
    ASSERT_EQ(dp->Forward(c), fwd[c]) << "forward, coordinate " << c;
    note(bwd[c]);
    note(fwd[c]);
  }
  const Sequence pivots = bwd[grid.initial_state()].items;
  EXPECT_EQ(dp->Pivots(), pivots);
  EXPECT_EQ(FindPivotItems(grid), pivots);
  Sequence via_nogrid;
  if (FindPivotItemsNoGrid(T, table, 200'000, &via_nogrid)) {
    EXPECT_EQ(via_nogrid, pivots) << "no grid";
    if (dp->width() > 1) ++coverage->nogrid_checked;
  }
}

// Random databases over up to 300 items, so a grid's d + 1 ranks cross 64
// and 128 (W = 1, 2, 3 and more), under patterns that capture and generalize, plus
// an all-ε pattern and anchored ones most sequences do not match. The
// property suites above use at most 16 items, i.e. one word. One instance
// loads every grid, widths mixed, so a bit left over from an earlier load
// shows too.
TEST(PivotDpTest, WideAlphabetTablesMatchReference) {
  const std::vector<std::string> patterns = {
      ".*(.^).*",        ".*(.)[.*(.^)]{0,2}.*", ".*(.^).*(.^).*",
      ".*(i0^)[.*(.^)]*", "[.*(.)]*",            ".*([.^ .]|[. .^]).*",
      ".*",               "(.)(i1)",             "(i2^).*"};
  WidthCoverage coverage;
  PivotDp dp;
  for (uint64_t seed : {1, 2}) {
    SequenceDatabase db = testing::RandomDatabase(seed + 900, 300, 24, 240);
    for (const std::string& pattern : patterns) {
      Fst fst = CompileFst(pattern, db.dict);
      for (uint64_t sigma : {1, 2}) {
        SCOPED_TRACE("seed=" + std::to_string(seed) + " pattern=" + pattern +
                     " sigma=" + std::to_string(sigma));
        const StepTable table(fst, db.dict, sigma);
        for (const Sequence& T : db.sequences) {
          ExpectTablesMatchReference(T, StateGrid::Build(T, table), table,
                                     &dp, &coverage);
        }
      }
    }
  }
  for (size_t w : {1u, 2u, 3u}) {
    EXPECT_GT(coverage.grids_by_width[w], 0u) << "W=" << w;
  }
  EXPECT_GT(coverage.no_accepting_run, 0u);
  EXPECT_GT(coverage.eps_only, 0u);
  for (size_t r : kBoundaryRanks) {
    EXPECT_GT(coverage.holds_rank[r], 0u) << "rank " << r;
    EXPECT_GT(coverage.min_at_rank[r], 0u) << "rank " << r;
  }
  EXPECT_GT(coverage.nogrid_checked, 0u);
}

}  // namespace
}  // namespace dseq
