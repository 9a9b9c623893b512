#include "src/dist/naive.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/desq_dfs.h"
#include "src/dict/sequence.h"
#include "src/fst/compiler.h"
#include "src/util/varint.h"
#include "tests/test_util.h"

namespace dseq {
namespace {

constexpr char kPatternEx[] = ".*(A)[(.^).*]*(b).*";

TEST(NaiveTest, RunningExampleGolden) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  NaiveOptions options;
  options.sigma = 2;
  DistributedResult result = MineNaive(db.sequences, fst, db.dict, options);
  MiningResult expected = {
      {db.ParseSequence("a1 b"), 3},
      {db.ParseSequence("a1 a1 b"), 2},
      {db.ParseSequence("a1 A b"), 2},
  };
  Canonicalize(&expected);
  EXPECT_EQ(result.patterns, expected);
}

TEST(NaiveTest, SemiNaiveShufflesLess) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  NaiveOptions naive;
  naive.sigma = 2;
  NaiveOptions semi = naive;
  semi.semi_naive = true;
  DistributedResult r1 = MineNaive(db.sequences, fst, db.dict, naive);
  DistributedResult r2 = MineNaive(db.sequences, fst, db.dict, semi);
  EXPECT_EQ(r1.patterns, r2.patterns);
  // SEMI-NAIVE communicates only candidates made of frequent items.
  EXPECT_LT(r2.metrics.shuffle_bytes, r1.metrics.shuffle_bytes);
}

TEST(NaiveTest, ShuffleBudgetProducesOom) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  NaiveOptions options;
  options.sigma = 2;
  options.shuffle_budget_bytes = 8;
  EXPECT_THROW(MineNaive(db.sequences, fst, db.dict, options),
               ShuffleOverflowError);
}

TEST(NaiveTest, CandidateBudgetProducesOom) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  NaiveOptions options;
  options.sigma = 2;
  options.candidates_per_sequence_budget = 2;
  EXPECT_THROW(MineNaive(db.sequences, fst, db.dict, options),
               MiningBudgetError);
}

// --- MineNaivePartition: the reduce of one candidate ------------------------

std::string Count(uint64_t n) {
  std::string out;
  PutVarint(&out, n);
  return out;
}

std::string CandidateKey(const Sequence& candidate) {
  std::string out;
  PutSequence(&out, candidate);
  return out;
}

TEST(NaivePartitionTest, GroupBelowSigmaYieldsNothing) {
  NaiveOptions options;
  const std::string key = CandidateKey({2, 5});
  const std::string one = Count(1);
  const std::string two = Count(2);
  std::vector<std::string_view> values = {one, two};
  options.sigma = 4;
  EXPECT_TRUE(MineNaivePartition(key, values, options).empty());
  options.sigma = 3;
  MiningResult expected = {{Sequence{2, 5}, 3}};
  EXPECT_EQ(MineNaivePartition(key, values, options), expected);
}

TEST(NaivePartitionTest, MalformedCountThrows) {
  NaiveOptions options;
  const std::string key = CandidateKey({1});
  const std::string truncated = "\x80";  // a varint cut short
  std::vector<std::string_view> values = {truncated};
  EXPECT_THROW(MineNaivePartition(key, values, options),
               std::invalid_argument);
  std::vector<std::string_view> empty_value = {std::string_view()};
  EXPECT_THROW(MineNaivePartition(key, empty_value, options),
               std::invalid_argument);
}

TEST(NaivePartitionTest, CountWithTrailingBytesThrows) {
  NaiveOptions options;
  const std::string key = CandidateKey({1});
  const std::string padded = Count(1) + "x";
  std::vector<std::string_view> values = {padded};
  EXPECT_THROW(MineNaivePartition(key, values, options),
               std::invalid_argument);
}

TEST(NaivePartitionTest, MalformedKeyOfAFrequentGroupThrows) {
  NaiveOptions options;
  options.sigma = 1;
  const std::string one = Count(1);
  std::vector<std::string_view> values = {one};
  // A length prefix promising more items than the key holds, and a valid
  // candidate followed by a stray byte.
  EXPECT_THROW(MineNaivePartition(Count(3) + Count(1), values, options),
               std::invalid_argument);
  EXPECT_THROW(MineNaivePartition(CandidateKey({1}) + "x", values, options),
               std::invalid_argument);
}

class NaivePropertyTest
    : public ::testing::TestWithParam<std::tuple<int, std::string>> {};

TEST_P(NaivePropertyTest, MatchesDesqDfs) {
  auto [seed, pattern] = GetParam();
  SequenceDatabase db = testing::RandomDatabase(seed + 300, 8, 40, 8);
  Fst fst = CompileFst(pattern, db.dict);
  for (uint64_t sigma : {1, 2, 4}) {
    DesqDfsOptions seq_options;
    seq_options.sigma = sigma;
    MiningResult expected =
        MineDesqDfs(db.sequences, fst, db.dict, seq_options);

    for (bool semi : {false, true}) {
      NaiveOptions options;
      options.sigma = sigma;
      options.semi_naive = semi;
      options.num_map_workers = 3;
      options.num_reduce_workers = 2;
      DistributedResult actual =
          MineNaive(db.sequences, fst, db.dict, options);
      EXPECT_EQ(actual.patterns, expected)
          << "pattern=" << pattern << " sigma=" << sigma << " semi=" << semi;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomizedNaive, NaivePropertyTest,
    ::testing::Combine(::testing::Values(1, 2),
                       ::testing::ValuesIn(testing::PropertyPatterns())));

}  // namespace
}  // namespace dseq
