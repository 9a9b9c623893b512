#include "src/core/desq_dfs.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/dict/sequence.h"
#include "src/fst/compiler.h"
#include "tests/test_util.h"

namespace dseq {
namespace {

constexpr char kPatternEx[] = ".*(A)[(.^).*]*(b).*";

TEST(DesqDfsTest, RunningExampleGolden) {
  // Paper Sec. II: for πex and σ=2, the frequent subsequences are a1a1b and
  // a1Ab with frequency 2 and a1b with frequency 3.
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  DesqDfsOptions options;
  options.sigma = 2;
  MiningResult result = MineDesqDfs(db.sequences, fst, db.dict, options);

  ASSERT_EQ(result.size(), 3u) << testing::Format(result, db.dict);
  MiningResult expected = {
      {db.ParseSequence("a1 b"), 3},
      {db.ParseSequence("a1 a1 b"), 2},
      {db.ParseSequence("a1 A b"), 2},
  };
  Canonicalize(&expected);
  EXPECT_EQ(result, expected) << testing::Format(result, db.dict);
}

TEST(DesqDfsTest, SigmaOneFindsAllCandidates) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  DesqDfsOptions options;
  options.sigma = 1;
  MiningResult result = MineDesqDfs(db.sequences, fst, db.dict, options);
  MiningResult expected =
      testing::BruteForceMine(db.sequences, fst, db.dict, 1);
  EXPECT_EQ(result, expected);
}

TEST(DesqDfsTest, HighSigmaYieldsNothing) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  DesqDfsOptions options;
  options.sigma = 10;
  EXPECT_TRUE(MineDesqDfs(db.sequences, fst, db.dict, options).empty());
}

TEST(DesqDfsTest, PivotRestrictedMiningOnlyYieldsPivotSequences) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  ItemId a1 = db.dict.ItemByName("a1");

  DesqDfsOptions options;
  options.sigma = 2;
  options.pivot = a1;
  MiningResult result = MineDesqDfs(db.sequences, fst, db.dict, options);
  for (const PatternCount& pc : result) {
    EXPECT_EQ(PivotItem(pc.pattern), a1)
        << testing::Format({pc}, db.dict);
  }
  // All three frequent sequences have pivot a1.
  EXPECT_EQ(result.size(), 3u);
}

TEST(DesqDfsTest, PivotPartitionsUnionToFullResult) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  DesqDfsOptions full_options;
  full_options.sigma = 2;
  MiningResult full = MineDesqDfs(db.sequences, fst, db.dict, full_options);

  MiningResult stitched;
  for (ItemId k = 1; k <= db.dict.size(); ++k) {
    DesqDfsOptions options;
    options.sigma = 2;
    options.pivot = k;
    MiningResult part = MineDesqDfs(db.sequences, fst, db.dict, options);
    stitched.insert(stitched.end(), part.begin(), part.end());
  }
  Canonicalize(&stitched);
  EXPECT_EQ(stitched, full);
}

TEST(DesqDfsTest, EarlyStoppingDoesNotChangeResults) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  for (ItemId k = 1; k <= db.dict.size(); ++k) {
    DesqDfsOptions with;
    with.sigma = 2;
    with.pivot = k;
    with.early_stop = true;
    DesqDfsOptions without = with;
    without.early_stop = false;
    EXPECT_EQ(MineDesqDfs(db.sequences, fst, db.dict, with),
              MineDesqDfs(db.sequences, fst, db.dict, without))
        << "pivot " << k;
  }
}

TEST(DesqDfsTest, StoreRejectsAnotherPivot) {
  // A store is cut and pruned for its pivot; mining it for another would
  // silently drop patterns.
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  ItemId a1 = db.dict.ItemByName("a1");
  const StepTable table(fst, db.dict, 2);
  DfsInput input(table, a1);
  for (const Sequence& T : db.sequences) input.Add(T);
  DesqDfsOptions options;
  options.sigma = 2;
  EXPECT_THROW(MineDesqDfs(input, options), std::invalid_argument);
  options.pivot = a1;
  EXPECT_EQ(MineDesqDfs(input, options).size(), 3u);
}

TEST(DesqDfsTest, StoreRejectsItemsOutsideItsTable) {
  // Reduce inputs are decoded bytes; an id outside the dictionary must not
  // index the step table.
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  const StepTable table(fst, db.dict, 2);
  DfsInput input(table, kNoItem);
  EXPECT_THROW(input.Add({kNoItem}), std::invalid_argument);
  EXPECT_THROW(input.Add({1, static_cast<ItemId>(db.dict.size() + 1)}),
               std::invalid_argument);
  input.Add(db.sequences[0]);
  EXPECT_EQ(input.num_sequences(), 1u);
}

TEST(DesqDfsTest, MemoryBudgetThrows) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  DesqDfsOptions options;
  options.sigma = 2;
  options.max_total_grid_edges = 1;
  EXPECT_THROW(MineDesqDfs(db.sequences, fst, db.dict, options),
               MiningBudgetError);
}

TEST(DesqDfsTest, EmptyDatabase) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  DesqDfsOptions options;
  options.sigma = 1;
  EXPECT_TRUE(MineDesqDfs({}, fst, db.dict, options).empty());
}

// Property: DESQ-DFS == brute force across random databases, patterns, and
// thresholds.
class DesqDfsPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, std::string>> {};

TEST_P(DesqDfsPropertyTest, MatchesBruteForce) {
  auto [seed, pattern] = GetParam();
  SequenceDatabase db = testing::RandomDatabase(seed + 100, 8, 40, 8);
  Fst fst = CompileFst(pattern, db.dict);
  for (uint64_t sigma : {1, 2, 3, 5}) {
    DesqDfsOptions options;
    options.sigma = sigma;
    MiningResult actual = MineDesqDfs(db.sequences, fst, db.dict, options);
    MiningResult expected =
        testing::BruteForceMine(db.sequences, fst, db.dict, sigma);
    EXPECT_EQ(actual, expected)
        << "pattern=" << pattern << " sigma=" << sigma << "\nactual:\n"
        << testing::Format(actual, db.dict) << "expected:\n"
        << testing::Format(expected, db.dict);

    // Pivot-restricted mining, with and without early stopping, yields
    // exactly the patterns whose max item is the pivot.
    for (ItemId k = 1; k <= db.dict.size(); ++k) {
      MiningResult with_pivot;
      for (const PatternCount& pc : expected) {
        if (PivotItem(pc.pattern) == k) with_pivot.push_back(pc);
      }
      for (bool early_stop : {true, false}) {
        DesqDfsOptions local = options;
        local.pivot = k;
        local.early_stop = early_stop;
        EXPECT_EQ(MineDesqDfs(db.sequences, fst, db.dict, local), with_pivot)
            << "pattern=" << pattern << " sigma=" << sigma << " pivot=" << k
            << " early_stop=" << early_stop;
      }
    }
  }
}

// With no pivot the store keeps exactly the σ-pruned grids' edges, so the
// max_total_grid_edges budget (the OOM emulation of Tab. V and Fig. 13)
// means what it meant over StateGrids. For every pivot, the table-fed store
// (two passes over the step table) keeps what a grid-fed store (the grids'
// edges cut, sorted and committed) keeps, and mines the same patterns.
TEST_P(DesqDfsPropertyTest, StoreEdgesMatchGridEdges) {
  auto [seed, pattern] = GetParam();
  SequenceDatabase db = testing::RandomDatabase(seed + 100, 8, 40, 8);
  Fst fst = CompileFst(pattern, db.dict);
  for (uint64_t sigma : {0, 1, 3, 5}) {
    GridOptions grid_options;
    grid_options.prune_sigma = sigma;
    const StepTable table(fst, db.dict, sigma);
    std::vector<StateGrid> grids;
    uint64_t grid_edges = 0;
    size_t accepting = 0;
    for (const Sequence& T : db.sequences) {
      StateGrid grid = StateGrid::Build(T, fst, db.dict, grid_options);
      grid_edges += grid.num_edges();
      accepting += grid.HasAcceptingRun() ? 1 : 0;
      grids.push_back(StateGrid::Build(T, table));
    }
    for (ItemId k = 0; k <= db.dict.size(); ++k) {
      SCOPED_TRACE(::testing::Message() << "pattern=" << pattern << " sigma="
                                        << sigma << " pivot=" << k);
      DfsInput from_table(table, k);
      DfsInput from_grids(k);
      for (size_t i = 0; i < grids.size(); ++i) {
        from_table.Add(db.sequences[i]);
        from_grids.Add(grids[i]);
      }
      EXPECT_EQ(from_table.num_sequences(), from_grids.num_sequences());
      EXPECT_EQ(from_table.num_edges(), from_grids.num_edges());
      if (k == kNoItem) {
        EXPECT_EQ(from_table.num_edges(), grid_edges);
        EXPECT_EQ(from_table.num_sequences(), accepting);
      }
      for (bool early_stop : {true, false}) {
        DesqDfsOptions options;
        options.sigma = std::max<uint64_t>(sigma, 1);
        options.pivot = k;
        options.early_stop = early_stop;
        EXPECT_EQ(MineDesqDfs(from_table, options),
                  MineDesqDfs(from_grids, options))
            << "early_stop=" << early_stop;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomizedDesqDfs, DesqDfsPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::ValuesIn(testing::PropertyPatterns())));

}  // namespace
}  // namespace dseq
