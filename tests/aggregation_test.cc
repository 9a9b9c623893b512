// Tests for weighted mining and shuffle-side aggregation of identical
// rewritten sequences (the D-SEQ aggregation extension) and weighted
// DESQ-DFS.
#include <gtest/gtest.h>

#include <random>
#include <string>

#include "src/core/desq_dfs.h"
#include "src/dict/sequence.h"
#include "src/dist/dseq_miner.h"
#include "src/fst/compiler.h"
#include "tests/test_util.h"

namespace dseq {
namespace {

constexpr char kPatternEx[] = ".*(A)[(.^).*]*(b).*";

TEST(WeightedDesqDfsTest, WeightsMultiplySupport) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  DesqDfsOptions options;
  options.sigma = 3;

  // T5 = a1 a1 b with weight 3 is equivalent to three copies of T5, whether
  // the store simulates the FST itself or adapts a built grid.
  const StepTable table(fst, db.dict, options.sigma);
  DfsInput direct(table, kNoItem);
  direct.Add(db.sequences[4], 3);
  GridOptions grid_options;
  grid_options.prune_sigma = options.sigma;
  std::vector<StateGrid> grids = {
      StateGrid::Build(db.sequences[4], fst, db.dict, grid_options)};

  std::vector<Sequence> copies(3, db.sequences[4]);
  MiningResult expected = MineDesqDfs(copies, fst, db.dict, options);
  EXPECT_EQ(MineDesqDfs(direct, options), expected);
  EXPECT_EQ(MineDesqDfsGrids(grids, {3}, options), expected);
  EXPECT_FALSE(expected.empty());
}

TEST(WeightedDesqDfsTest, UnitWeightsMatchSequences) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  GridOptions grid_options;
  grid_options.prune_sigma = 2;
  std::vector<StateGrid> grids;
  for (const Sequence& T : db.sequences) {
    grids.push_back(StateGrid::Build(T, fst, db.dict, grid_options));
  }
  DesqDfsOptions options;
  options.sigma = 2;
  std::vector<uint64_t> ones(grids.size(), 1);
  EXPECT_EQ(MineDesqDfsGrids(grids, ones, options),
            MineDesqDfs(db.sequences, fst, db.dict, options));
}

// Add(T, w), Add(grid, w) and w copies of T mine the same patterns, with and
// without a pivot, on random databases and weights.
TEST(WeightedDesqDfsTest, WeightedAddsMatchCopies) {
  for (int seed : {1, 2, 3}) {
    SequenceDatabase db = testing::RandomDatabase(seed + 200, 8, 20, 8);
    std::mt19937_64 rng(seed);
    std::vector<uint64_t> weights;
    std::vector<Sequence> copies;
    for (const Sequence& T : db.sequences) {
      weights.push_back(1 + rng() % 3);
      copies.insert(copies.end(), weights.back(), T);
    }
    for (const std::string& pattern : testing::PropertyPatterns()) {
      Fst fst = CompileFst(pattern, db.dict);
      for (uint64_t sigma : {2, 5}) {
        GridOptions grid_options;
        grid_options.prune_sigma = sigma;
        std::vector<StateGrid> grids;
        for (const Sequence& T : db.sequences) {
          grids.push_back(StateGrid::Build(T, fst, db.dict, grid_options));
        }
        const StepTable table(fst, db.dict, sigma);
        for (ItemId pivot = kNoItem; pivot <= db.dict.size(); ++pivot) {
          DesqDfsOptions options;
          options.sigma = sigma;
          options.pivot = pivot;
          DfsInput direct(table, pivot);
          for (size_t i = 0; i < db.sequences.size(); ++i) {
            direct.Add(db.sequences[i], weights[i]);
          }
          MiningResult expected = MineDesqDfs(copies, fst, db.dict, options);
          EXPECT_EQ(MineDesqDfs(direct, options), expected)
              << "pattern=" << pattern << " sigma=" << sigma
              << " pivot=" << pivot;
          EXPECT_EQ(MineDesqDfsGrids(grids, weights, options), expected)
              << "pattern=" << pattern << " sigma=" << sigma
              << " pivot=" << pivot;
        }
      }
    }
  }
}

TEST(DSeqAggregationTest, ResultsUnchanged) {
  // A database with many duplicated sequences: aggregation must not change
  // results but must shrink the shuffle.
  SequenceDatabase base = MakeRunningExample();
  SequenceDatabase db;
  db.dict = base.dict;
  for (int i = 0; i < 40; ++i) {
    for (const Sequence& T : base.sequences) db.sequences.push_back(T);
  }
  db.Recode();  // frequencies now reflect the repeated database
  Fst fst = CompileFst(kPatternEx, db.dict);

  DSeqOptions plain;
  plain.sigma = 40;
  DSeqOptions aggregated = plain;
  aggregated.aggregate_sequences = true;

  DistributedResult r1 = MineDSeq(db.sequences, fst, db.dict, plain);
  DistributedResult r2 = MineDSeq(db.sequences, fst, db.dict, aggregated);
  EXPECT_EQ(r1.patterns, r2.patterns);
  EXPECT_FALSE(r1.patterns.empty());
  EXPECT_LT(r2.metrics.shuffle_records, r1.metrics.shuffle_records);
  EXPECT_LT(r2.metrics.shuffle_bytes, r1.metrics.shuffle_bytes);
}

class DSeqAggregationPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, std::string>> {};

TEST_P(DSeqAggregationPropertyTest, MatchesPlainDSeq) {
  auto [seed, pattern] = GetParam();
  SequenceDatabase db = testing::RandomDatabase(seed + 1300, 6, 60, 6);
  Fst fst = CompileFst(pattern, db.dict);
  for (uint64_t sigma : {2, 3}) {
    DSeqOptions plain;
    plain.sigma = sigma;
    plain.num_map_workers = 2;
    plain.num_reduce_workers = 2;
    DSeqOptions aggregated = plain;
    aggregated.aggregate_sequences = true;
    EXPECT_EQ(MineDSeq(db.sequences, fst, db.dict, aggregated).patterns,
              MineDSeq(db.sequences, fst, db.dict, plain).patterns)
        << "pattern=" << pattern << " sigma=" << sigma;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomizedDSeqAggregation, DSeqAggregationPropertyTest,
    ::testing::Combine(::testing::Values(1, 2),
                       ::testing::ValuesIn(testing::PropertyPatterns())));

}  // namespace
}  // namespace dseq
