#include "src/core/desq_count.h"

#include <gtest/gtest.h>

#include "src/core/desq_dfs.h"
#include "src/dict/sequence.h"
#include "src/fst/compiler.h"
#include "tests/test_util.h"

namespace dseq {
namespace {

constexpr char kPatternEx[] = ".*(A)[(.^).*]*(b).*";

TEST(DesqCountTest, RunningExampleGolden) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  DesqCountOptions options;
  options.sigma = 2;
  MiningResult result = MineDesqCount(db.sequences, fst, db.dict, options);
  MiningResult expected = {
      {db.ParseSequence("a1 b"), 3},
      {db.ParseSequence("a1 a1 b"), 2},
      {db.ParseSequence("a1 A b"), 2},
  };
  Canonicalize(&expected);
  EXPECT_EQ(result, expected);
}

TEST(DesqCountTest, ParallelMatchesSerial) {
  SequenceDatabase db = testing::RandomDatabase(21, 8, 100, 8);
  Fst fst = CompileFst(".*(i0)[(.^).*]*(i1).*", db.dict);
  DesqCountOptions serial;
  serial.sigma = 2;
  DesqCountOptions parallel = serial;
  parallel.num_workers = 4;
  EXPECT_EQ(MineDesqCount(db.sequences, fst, db.dict, serial),
            MineDesqCount(db.sequences, fst, db.dict, parallel));
}

TEST(DesqCountTest, BudgetThrows) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  DesqCountOptions options;
  options.sigma = 2;
  options.candidates_per_sequence_budget = 2;
  EXPECT_THROW(MineDesqCount(db.sequences, fst, db.dict, options),
               MiningBudgetError);
}

// A budget of 0 means unlimited, as for NAIVE/SEMI-NAIVE: it must not
// throw on the first candidate.
TEST(DesqCountTest, ZeroBudgetIsUnlimited) {
  SequenceDatabase db = testing::RandomDatabase(31, 8, 60, 8);
  Fst fst = CompileFst(".*(i0)[(.^).*]*(i1).*", db.dict);
  DesqCountOptions options;
  options.sigma = 2;
  options.candidates_per_sequence_budget = 0;
  DesqDfsOptions dfs_options;
  dfs_options.sigma = 2;
  MiningResult expected = MineDesqDfs(db.sequences, fst, db.dict, dfs_options);
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(MineDesqCount(db.sequences, fst, db.dict, options), expected);
}

class DesqCountPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, std::string>> {};

TEST_P(DesqCountPropertyTest, MatchesDesqDfs) {
  auto [seed, pattern] = GetParam();
  SequenceDatabase db = testing::RandomDatabase(seed + 1100, 8, 40, 8);
  Fst fst = CompileFst(pattern, db.dict);
  for (uint64_t sigma : {1, 2, 4}) {
    DesqDfsOptions dfs_options;
    dfs_options.sigma = sigma;
    DesqCountOptions count_options;
    count_options.sigma = sigma;
    count_options.num_workers = 2;
    EXPECT_EQ(MineDesqCount(db.sequences, fst, db.dict, count_options),
              MineDesqDfs(db.sequences, fst, db.dict, dfs_options))
        << "pattern=" << pattern << " sigma=" << sigma;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomizedDesqCount, DesqCountPropertyTest,
    ::testing::Combine(::testing::Values(1, 2),
                       ::testing::ValuesIn(testing::PropertyPatterns())));

}  // namespace
}  // namespace dseq
