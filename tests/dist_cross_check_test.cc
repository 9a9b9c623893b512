// Randomized cross-check of the three distributed miners against the
// brute-force oracle (independent of every pattern-growth code path),
// sweeping map/reduce worker counts, plus the paper's Table IV direction:
// pivot partitioning shuffles strictly less than candidate shipping.
#include <gtest/gtest.h>

#include <tuple>

#include "src/dict/sequence.h"
#include "src/dist/dcand_miner.h"
#include "src/dist/dseq_miner.h"
#include "src/dist/naive.h"
#include "src/fst/compiler.h"
#include "tests/test_util.h"

namespace dseq {
namespace {

constexpr char kPatternEx[] = ".*(A)[(.^).*]*(b).*";

class DistCrossCheckTest
    : public ::testing::TestWithParam<std::tuple<int, std::string>> {};

TEST_P(DistCrossCheckTest, AllMinersMatchBruteForceAcrossWorkerCounts) {
  auto [seed, pattern] = GetParam();
  SequenceDatabase db = testing::RandomDatabase(seed + 2100, 7, 50, 8);
  Fst fst = CompileFst(pattern, db.dict);
  for (uint64_t sigma : {1, 3}) {
    MiningResult expected =
        testing::BruteForceMine(db.sequences, fst, db.dict, sigma);

    testing::ForEachWorkerCount(
        [&](int workers) {
          NaiveOptions naive;
          naive.sigma = sigma;
          naive.num_map_workers = workers;
          naive.num_reduce_workers = workers;
          EXPECT_EQ(MineNaive(db.sequences, fst, db.dict, naive).patterns,
                    expected)
              << "NAIVE, pattern=" << pattern << " sigma=" << sigma;

          DSeqOptions dseq;
          dseq.sigma = sigma;
          dseq.num_map_workers = workers;
          dseq.num_reduce_workers = workers;
          EXPECT_EQ(MineDSeq(db.sequences, fst, db.dict, dseq).patterns,
                    expected)
              << "D-SEQ, pattern=" << pattern << " sigma=" << sigma;

          DCandOptions dcand;
          dcand.sigma = sigma;
          dcand.num_map_workers = workers;
          dcand.num_reduce_workers = workers;
          EXPECT_EQ(MineDCand(db.sequences, fst, db.dict, dcand).patterns,
                    expected)
              << "D-CAND, pattern=" << pattern << " sigma=" << sigma;
        },
        {1, 2, 4});
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomizedCrossCheck, DistCrossCheckTest,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::ValuesIn(testing::PropertyPatterns())));

TEST(DistCrossCheckTest, CompressionChangesNoMinerResult) {
  // Shuffle compression is a transport concern: every miner must produce
  // byte-identical patterns with the codec on, with identical raw shuffle
  // volume and a non-zero compressed volume reported on the side.
  SequenceDatabase db = testing::RandomDatabase(2600, 7, 50, 8);
  Fst fst = CompileFst(".*(.)[.*(.)]{0,2}.*", db.dict);
  const uint64_t sigma = 2;
  MiningResult expected =
      testing::BruteForceMine(db.sequences, fst, db.dict, sigma);

  auto check = [&](const DistributedResult& plain,
                   const DistributedResult& compressed, const char* name) {
    EXPECT_EQ(plain.patterns, expected) << name;
    EXPECT_EQ(compressed.patterns, expected) << name << " (compressed)";
    EXPECT_EQ(compressed.metrics.shuffle_bytes, plain.metrics.shuffle_bytes)
        << name;
    EXPECT_EQ(plain.metrics.shuffle_compressed_bytes, 0u) << name;
    if (compressed.metrics.shuffle_records > 0) {
      EXPECT_GT(compressed.metrics.shuffle_compressed_bytes, 0u) << name;
    }
  };

  NaiveOptions naive;
  naive.sigma = sigma;
  naive.num_map_workers = 2;
  naive.num_reduce_workers = 2;
  NaiveOptions naive_c = naive;
  naive_c.compress_shuffle = true;
  check(MineNaive(db.sequences, fst, db.dict, naive),
        MineNaive(db.sequences, fst, db.dict, naive_c), "NAIVE");

  DSeqOptions dseq;
  dseq.sigma = sigma;
  dseq.num_map_workers = 2;
  dseq.num_reduce_workers = 2;
  DSeqOptions dseq_c = dseq;
  dseq_c.compress_shuffle = true;
  check(MineDSeq(db.sequences, fst, db.dict, dseq),
        MineDSeq(db.sequences, fst, db.dict, dseq_c), "D-SEQ");

  DCandOptions dcand;
  dcand.sigma = sigma;
  dcand.num_map_workers = 2;
  dcand.num_reduce_workers = 2;
  DCandOptions dcand_c = dcand;
  dcand_c.compress_shuffle = true;
  check(MineDCand(db.sequences, fst, db.dict, dcand),
        MineDCand(db.sequences, fst, db.dict, dcand_c), "D-CAND");
}

TEST(DistShuffleTest, PivotPartitioningShufflesLessThanNaive) {
  // Paper Tab. IV direction on the running example: both item-based
  // representations (sequences and NFAs) shuffle strictly fewer bytes than
  // candidate shipping.
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);

  NaiveOptions naive;
  naive.sigma = 2;
  DistributedResult r_naive = MineNaive(db.sequences, fst, db.dict, naive);

  DSeqOptions dseq;
  dseq.sigma = 2;
  DistributedResult r_dseq = MineDSeq(db.sequences, fst, db.dict, dseq);

  DCandOptions dcand;
  dcand.sigma = 2;
  DistributedResult r_dcand = MineDCand(db.sequences, fst, db.dict, dcand);

  EXPECT_EQ(r_dseq.patterns, r_naive.patterns);
  EXPECT_EQ(r_dcand.patterns, r_naive.patterns);
  EXPECT_LT(r_dseq.metrics.shuffle_bytes, r_naive.metrics.shuffle_bytes);
  EXPECT_LT(r_dcand.metrics.shuffle_bytes, r_naive.metrics.shuffle_bytes);
}

TEST(DistributedHelpersTest, PivotKeyRoundTrip) {
  for (ItemId pivot : {ItemId{1}, ItemId{127}, ItemId{128}, ItemId{65536}}) {
    EXPECT_EQ(DecodePivotKey(EncodePivotKey(pivot)), pivot);
  }
  EXPECT_THROW(DecodePivotKey(""), std::invalid_argument);
  EXPECT_THROW(DecodePivotKey(std::string(1, '\x80')), std::invalid_argument);
  // Pivot kNoItem names no partition, and a sub-partition key (pivot 5,
  // sub-partition 1) is no plain pivot key.
  EXPECT_THROW(DecodePivotKey(std::string(1, '\0')), std::invalid_argument);
  EXPECT_THROW(DecodePivotKey(EncodePivotKey(5) + EncodePivotKey(1)),
               std::invalid_argument);
}

TEST(DistributedHelpersTest, PatternRecordRoundTrip) {
  std::string key = "F";  // a caller's key prefix survives the append
  std::string value;
  EncodePatternRecord(PatternCount{{3, 1, 200}, 300}, &key, &value);
  ASSERT_EQ(key[0], 'F');
  PatternCount decoded = DecodePatternRecord(key.substr(1), value);
  EXPECT_EQ(decoded.pattern, (Sequence{3, 1, 200}));
  EXPECT_EQ(decoded.frequency, 300u);

  std::string trailing = value + "x";
  EXPECT_THROW(DecodePatternRecord(key.substr(1), trailing),
               std::invalid_argument);
  EXPECT_THROW(DecodePatternRecord(key.substr(1), ""), std::invalid_argument);
  EXPECT_THROW(DecodePatternRecord(key, value), std::invalid_argument);
  EXPECT_THROW(DecodePatternRecord(std::string(1, '\x80'), value),
               std::invalid_argument);
}

}  // namespace
}  // namespace dseq
