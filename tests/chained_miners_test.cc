// Cross-checks of the iterative (multi-round) workloads against their
// single-round counterparts: k-round chained PrefixSpan must be
// byte-identical to the collapsed src/baselines/prefix_span oracle, and the
// two-round frequency-recount drivers must reproduce MineNaive/MineDSeq
// exactly when the recount is unsampled.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "src/baselines/prefix_span.h"
#include "src/dict/sequence.h"
#include "src/dist/dseq_miner.h"
#include "src/dist/naive.h"
#include "src/fst/compiler.h"
#include "tests/test_util.h"

namespace dseq {
namespace {

TEST(ChainedPrefixSpanTest, MatchesOracleOnRandomizedInputs) {
  for (uint64_t seed : {1, 2, 3, 4}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    SequenceDatabase db = testing::RandomDatabase(seed + 4400, 8, 60, 9);
    for (uint64_t sigma : {1, 2, 4}) {
      for (uint32_t lambda : {1, 2, 3, 5}) {
        SCOPED_TRACE("sigma=" + std::to_string(sigma) +
                     " lambda=" + std::to_string(lambda));
        PrefixSpanOptions oracle_options;
        oracle_options.sigma = sigma;
        oracle_options.lambda = lambda;
        MiningResult expected =
            MinePrefixSpan(db.sequences, db.dict, oracle_options).patterns;

        testing::ForEachWorkerCount(
            [&](int workers) {
              PrefixSpanOptions options;
              options.sigma = sigma;
              options.lambda = lambda;
              options.num_map_workers = workers;
              options.num_reduce_workers = workers;
              DistributedResult chained =
                  MineChainedPrefixSpan(db.sequences, db.dict, options);
              EXPECT_EQ(chained.patterns, expected);
              // One shuffle round per grown prefix length, stopping early
              // once nothing survives.
              EXPECT_GE(chained.num_rounds(), 1u);
              EXPECT_LE(chained.num_rounds(), lambda);
              uint64_t total = 0;
              for (const DataflowMetrics& m : chained.round_metrics) {
                total += m.shuffle_bytes;
              }
              EXPECT_EQ(chained.metrics.shuffle_bytes, total);
            },
            {1, 2, 4});
      }
    }
  }
}

TEST(ChainedPrefixSpanTest, GrowsOneRoundPerPrefixLength) {
  // "a b c" x3 supports the length-3 pattern a b c at sigma 3: with lambda 3
  // the chain must take all three rounds, each with a non-empty shuffle.
  SequenceDatabase db;
  DictionaryBuilder builder;
  builder.AddItem("a");
  builder.AddItem("b");
  builder.AddItem("c");
  db.dict = builder.Build();
  for (int i = 0; i < 3; ++i) db.sequences.push_back({1, 2, 3});
  db.Recode();

  PrefixSpanOptions options;
  options.sigma = 3;
  options.lambda = 3;
  DistributedResult result =
      MineChainedPrefixSpan(db.sequences, db.dict, options);
  ASSERT_EQ(result.num_rounds(), 3u);
  for (const DataflowMetrics& m : result.round_metrics) {
    EXPECT_GT(m.shuffle_records, 0u);
    EXPECT_GT(m.shuffle_bytes, 0u);
  }
  // 3 singletons + 2 pairs (ab, bc... plus ac) + 1 triple: a,b,c,ab,ac,bc,abc.
  EXPECT_EQ(result.patterns.size(), 7u);
  // Later rounds ship strictly shrinking projected databases here.
  EXPECT_GT(result.round_metrics[0].shuffle_bytes,
            result.round_metrics[2].shuffle_bytes);
}

TEST(ChainedPrefixSpanTest, LambdaZeroYieldsNothingInBothVariants) {
  // A length bound of 0 admits no pattern; neither entry point may mine
  // (or underflow the recursion depth).
  SequenceDatabase db = testing::RandomDatabase(4450, 6, 20, 6);
  PrefixSpanOptions options;
  options.sigma = 1;
  options.lambda = 0;
  EXPECT_TRUE(MinePrefixSpan(db.sequences, db.dict, options).patterns.empty());
  DistributedResult chained =
      MineChainedPrefixSpan(db.sequences, db.dict, options);
  EXPECT_TRUE(chained.patterns.empty());
  EXPECT_EQ(chained.num_rounds(), 0u);
}

TEST(RecountFrequenciesTest, ExactRecountMatchesDictionary) {
  SequenceDatabase db = testing::RandomDatabase(4600, 7, 50, 8);
  DataflowJob job(DataflowOptions{});
  Dictionary recounted = RecountFrequencies(job, db.sequences, db.dict);
  ASSERT_EQ(recounted.size(), db.dict.size());
  for (ItemId w = 1; w <= db.dict.size(); ++w) {
    EXPECT_EQ(recounted.DocFrequency(w), db.dict.DocFrequency(w))
        << db.dict.Name(w);
  }
  EXPECT_EQ(job.num_rounds(), 1u);
  EXPECT_GT(job.round_metrics()[0].shuffle_bytes, 0u);
  // The combiner pre-aggregates the (item, 1) records per map worker.
  EXPECT_LE(job.round_metrics()[0].shuffle_records,
            job.round_metrics()[0].map_output_records);
}

TEST(RecountFrequenciesTest, SampledRecountScalesUp) {
  // Two identical sequences: a 1-in-2 systematic sample sees one of them and
  // scales the counts back up to the exact values.
  SequenceDatabase db;
  DictionaryBuilder builder;
  builder.AddItem("a");
  builder.AddItem("b");
  db.dict = builder.Build();
  db.sequences.push_back({1, 2});
  db.sequences.push_back({1, 2});
  db.Recode();

  DataflowJob job(DataflowOptions{});
  Dictionary recounted =
      RecountFrequencies(job, db.sequences, db.dict, /*sample_every=*/2);
  for (ItemId w = 1; w <= db.dict.size(); ++w) {
    EXPECT_EQ(recounted.DocFrequency(w), db.dict.DocFrequency(w));
  }
}

TEST(RecountFrequenciesTest, SampledRecountScalesByTrueRatio) {
  // 5 identical sequences, 1-in-4 systematic sample: indices 0 and 4 are
  // counted, so the scale factor is 5/2 — not sample_every (which would
  // report 8 for an item present in all 5 sequences).
  SequenceDatabase db;
  DictionaryBuilder builder;
  builder.AddItem("a");
  db.dict = builder.Build();
  for (int i = 0; i < 5; ++i) db.sequences.push_back({1});
  db.Recode();

  DataflowJob job(DataflowOptions{});
  Dictionary recounted =
      RecountFrequencies(job, db.sequences, db.dict, /*sample_every=*/4);
  EXPECT_EQ(recounted.DocFrequency(1), 5u);
}

class RecountMinerTest
    : public ::testing::TestWithParam<std::tuple<int, std::string>> {};

TEST_P(RecountMinerTest, ExactRecountReproducesSingleRoundMiners) {
  auto [seed, pattern] = GetParam();
  SequenceDatabase db = testing::RandomDatabase(seed + 4700, 7, 50, 8);
  Fst fst = CompileFst(pattern, db.dict);
  for (uint64_t sigma : {1, 3}) {
    SCOPED_TRACE("sigma=" + std::to_string(sigma));
    testing::ForEachWorkerCount(
        [&](int workers) {
          for (bool semi : {false, true}) {
            NaiveRecountOptions naive;
            naive.sigma = sigma;
            naive.semi_naive = semi;
            naive.num_map_workers = workers;
            naive.num_reduce_workers = workers;
            MiningResult expected =
                MineNaive(db.sequences, fst, db.dict, naive).patterns;
            DistributedResult chained =
                MineNaiveRecount(db.sequences, fst, db.dict, naive);
            EXPECT_EQ(chained.patterns, expected)
                << (semi ? "SEMI-NAIVE" : "NAIVE");
            EXPECT_EQ(chained.num_rounds(), 2u);
          }

          DSeqRecountOptions dseq;
          dseq.sigma = sigma;
          dseq.num_map_workers = workers;
          dseq.num_reduce_workers = workers;
          MiningResult expected =
              MineDSeq(db.sequences, fst, db.dict, dseq).patterns;
          DistributedResult chained =
              MineDSeqRecount(db.sequences, fst, db.dict, dseq);
          EXPECT_EQ(chained.patterns, expected) << "D-SEQ";
          EXPECT_EQ(chained.num_rounds(), 2u);
          EXPECT_EQ(chained.metrics.shuffle_bytes,
                    chained.round_metrics[0].shuffle_bytes +
                        chained.round_metrics[1].shuffle_bytes);
        },
        {1, 2, 4});
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomizedRecount, RecountMinerTest,
    ::testing::Combine(::testing::Values(1, 2),
                       ::testing::Values(".*(i0)[(.^).*]*(i1).*",
                                         ".*(.)[.*(.)]{0,2}.*",
                                         ".*(i0^=)[.*(i1^=)]{0,2}.*")));

TEST(RecountMinerTest, ExactRecountReproducesMinersOnEveryExecution) {
  // On threads and in the sequential simulation alike (there several map
  // shards share one thread), both recount drivers mine what their
  // single-round miners mine, and a result's metrics are its rounds' sum.
  SequenceDatabase db = testing::RandomDatabase(4900, 7, 40, 8);
  Fst fst = CompileFst(".*(.)[.*(.)]{0,2}.*", db.dict);
  for (Execution execution : {Execution::kThreads, Execution::kSimulated}) {
    DSeqRecountOptions dseq;
    dseq.sigma = 2;
    dseq.num_map_workers = 3;
    dseq.num_reduce_workers = 2;
    dseq.execution = execution;
    DistributedResult exact =
        MineDSeqRecount(db.sequences, fst, db.dict, dseq);
    EXPECT_EQ(exact.patterns,
              MineDSeq(db.sequences, fst, db.dict, dseq).patterns);
    ASSERT_EQ(exact.num_rounds(), 2u);
    EXPECT_EQ(exact.metrics.shuffle_bytes,
              exact.round_metrics[0].shuffle_bytes +
                  exact.round_metrics[1].shuffle_bytes);

    NaiveRecountOptions naive;
    naive.sigma = 2;
    naive.execution = execution;
    EXPECT_EQ(MineNaiveRecount(db.sequences, fst, db.dict, naive).patterns,
              MineNaive(db.sequences, fst, db.dict, naive).patterns);
  }
}

TEST(RecountMinerTest, CompressionLeavesRecountResultsUnchanged) {
  SequenceDatabase db = testing::RandomDatabase(4950, 7, 40, 8);
  Fst fst = CompileFst(".*(i0)[(.^).*]*(i1).*", db.dict);
  DSeqRecountOptions options;
  options.sigma = 2;
  DistributedResult plain =
      MineDSeqRecount(db.sequences, fst, db.dict, options);
  options.compress_shuffle = true;
  DistributedResult compressed =
      MineDSeqRecount(db.sequences, fst, db.dict, options);
  EXPECT_EQ(compressed.patterns, plain.patterns);
  ASSERT_EQ(compressed.num_rounds(), plain.num_rounds());
  for (size_t r = 0; r < plain.num_rounds(); ++r) {
    EXPECT_EQ(compressed.round_metrics[r].shuffle_bytes,
              plain.round_metrics[r].shuffle_bytes)
        << "round " << r;
    if (compressed.round_metrics[r].shuffle_records > 0) {
      EXPECT_GT(compressed.round_metrics[r].shuffle_compressed_bytes, 0u);
    }
  }
  EXPECT_EQ(plain.metrics.shuffle_compressed_bytes, 0u);
  EXPECT_GT(compressed.metrics.shuffle_compressed_bytes, 0u);
}

TEST(RecountMinerTest, MineNaiveRecountRespectsThePerRoundBudget) {
  SequenceDatabase db = testing::RandomDatabase(4800, 6, 40, 8);
  Fst fst = CompileFst(".*(.)[.*(.)]{0,2}.*", db.dict);
  NaiveRecountOptions options;
  options.sigma = 2;
  DistributedResult free_run =
      MineNaiveRecount(db.sequences, fst, db.dict, options);
  ASSERT_EQ(free_run.num_rounds(), 2u);

  // The budget bounds each round on its own: the larger round's volume
  // lets the whole chain through, one byte less fails it.
  const uint64_t largest = std::max(free_run.round_metrics[0].shuffle_bytes,
                                    free_run.round_metrics[1].shuffle_bytes);
  NaiveRecountOptions tight = options;
  tight.shuffle_budget_bytes = largest;
  EXPECT_EQ(MineNaiveRecount(db.sequences, fst, db.dict, tight).patterns,
            free_run.patterns);
  tight.shuffle_budget_bytes = largest - 1;
  EXPECT_THROW(MineNaiveRecount(db.sequences, fst, db.dict, tight),
               ShuffleOverflowError);
}

}  // namespace
}  // namespace dseq
