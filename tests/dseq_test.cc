#include "src/dist/dseq_miner.h"

#include <gtest/gtest.h>

#include <map>
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

TEST(DSeqTest, RunningExampleGolden) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  DSeqOptions options;
  options.sigma = 2;
  DistributedResult result = MineDSeq(db.sequences, fst, db.dict, options);
  MiningResult expected = {
      {db.ParseSequence("a1 b"), 3},
      {db.ParseSequence("a1 a1 b"), 2},
      {db.ParseSequence("a1 A b"), 2},
  };
  Canonicalize(&expected);
  EXPECT_EQ(result.patterns, expected)
      << testing::Format(result.patterns, db.dict);
}

// The exposed map and reduce, run by hand per partition key, give MineDSeq's
// patterns; the reduce rejects malformed keys and records, and items the
// job's table does not hold.
TEST(DSeqTest, PartitionReduceMatchesMiner) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  DSeqOptions options;
  options.sigma = 2;
  const StepTable table(fst, db.dict, options.sigma);
  std::map<std::string, std::vector<std::string>> partitions;
  for (const Sequence& T : db.sequences) {
    MapDSeqInput(T, table, options,
                 [&](std::string_view key, std::string_view value) {
                   partitions[std::string(key)].emplace_back(value);
                 });
  }
  ASSERT_FALSE(partitions.empty());
  MiningResult mined;
  for (const auto& [key, records] : partitions) {
    std::vector<std::string_view> values(records.begin(), records.end());
    MiningResult local = MineDSeqPartition(key, values, table, options);
    mined.insert(mined.end(), local.begin(), local.end());
    EXPECT_THROW(MineDSeqPartition(std::string(1, '\0'), values, table,
                                   options),
                 std::invalid_argument);
  }
  Canonicalize(&mined);
  EXPECT_EQ(mined, MineDSeq(db.sequences, fst, db.dict, options).patterns);

  const std::string key = partitions.begin()->first;
  std::string truncated = partitions.begin()->second.front();
  truncated.pop_back();
  std::string outside;
  PutSequence(&outside, {static_cast<ItemId>(db.dict.size() + 1)});
  for (const std::string& bad : {truncated, outside}) {
    std::vector<std::string_view> values = {bad};
    EXPECT_THROW(MineDSeqPartition(key, values, table, options),
                 std::invalid_argument);
  }
}

TEST(DSeqTest, RewritingReducesShuffle) {
  SequenceDatabase db = testing::RandomDatabase(11, 8, 200, 12);
  Fst fst = CompileFst(".*(i0)[(.^).*]*(i1).*", db.dict);
  DSeqOptions with;
  with.sigma = 2;
  DSeqOptions without = with;
  without.rewrite = false;
  DistributedResult r1 = MineDSeq(db.sequences, fst, db.dict, with);
  DistributedResult r2 = MineDSeq(db.sequences, fst, db.dict, without);
  EXPECT_EQ(r1.patterns, r2.patterns);
  EXPECT_LE(r1.metrics.shuffle_bytes, r2.metrics.shuffle_bytes);
}

TEST(DSeqTest, AblationsAgree) {
  SequenceDatabase db = testing::RandomDatabase(12, 8, 60, 9);
  Fst fst = CompileFst(".*(i0)[(.^).*]*(i1).*", db.dict);
  DSeqOptions base;
  base.sigma = 2;
  DistributedResult reference = MineDSeq(db.sequences, fst, db.dict, base);
  for (bool grid : {false, true}) {
    for (bool rewrite : {false, true}) {
      for (bool stop : {false, true}) {
        DSeqOptions options = base;
        options.use_grid = grid;
        options.rewrite = rewrite;
        options.early_stop = stop;
        DistributedResult actual =
            MineDSeq(db.sequences, fst, db.dict, options);
        EXPECT_EQ(actual.patterns, reference.patterns)
            << "grid=" << grid << " rewrite=" << rewrite << " stop=" << stop;
      }
    }
  }
}

TEST(DSeqTest, MultiWorkerDeterminism) {
  SequenceDatabase db = testing::RandomDatabase(13, 8, 100, 10);
  Fst fst = CompileFst(".*(.^)[.{0,1}(.^)]{1,2}.*", db.dict);
  DSeqOptions options;
  options.sigma = 3;
  DistributedResult reference = MineDSeq(db.sequences, fst, db.dict, options);
  options.num_map_workers = 4;
  options.num_reduce_workers = 3;
  DistributedResult parallel = MineDSeq(db.sequences, fst, db.dict, options);
  EXPECT_EQ(parallel.patterns, reference.patterns);
}

TEST(DSeqTest, NoGridBudgetThrows) {
  SequenceDatabase db = testing::RandomDatabase(14, 6, 20, 12);
  Fst fst = CompileFst(".*(.^)[.{0,1}(.^)]{1,2}.*", db.dict);
  DSeqOptions options;
  options.sigma = 1;
  options.use_grid = false;
  options.nogrid_step_budget = 3;
  EXPECT_THROW(MineDSeq(db.sequences, fst, db.dict, options),
               MiningBudgetError);
}

class DSeqPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, std::string>> {};

TEST_P(DSeqPropertyTest, MatchesDesqDfs) {
  auto [seed, pattern] = GetParam();
  SequenceDatabase db = testing::RandomDatabase(seed + 700, 8, 40, 8);
  Fst fst = CompileFst(pattern, db.dict);
  for (uint64_t sigma : {1, 2, 4}) {
    DesqDfsOptions seq_options;
    seq_options.sigma = sigma;
    MiningResult expected =
        MineDesqDfs(db.sequences, fst, db.dict, seq_options);

    DSeqOptions options;
    options.sigma = sigma;
    options.num_map_workers = 2;
    options.num_reduce_workers = 2;
    DistributedResult actual = MineDSeq(db.sequences, fst, db.dict, options);
    EXPECT_EQ(actual.patterns, expected)
        << "pattern=" << pattern << " sigma=" << sigma << "\nactual:\n"
        << testing::Format(actual.patterns, db.dict) << "expected:\n"
        << testing::Format(expected, db.dict);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomizedDSeq, DSeqPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::ValuesIn(testing::PropertyPatterns())));

}  // namespace
}  // namespace dseq
