#include "src/dist/partition_stats.h"

#include <gtest/gtest.h>

#include "src/dict/sequence.h"
#include "src/dist/dseq_miner.h"
#include "src/fst/compiler.h"
#include "tests/test_util.h"

namespace dseq {
namespace {

constexpr char kPatternEx[] = ".*(A)[(.^).*]*(b).*";

TEST(PartitionStatsTest, RunningExamplePartitions) {
  // Paper Fig. 3 (σ=2): partitions P_a1 (T1, T2, T5) and P_c (T1).
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  std::vector<PartitionStats> stats =
      ComputePartitionStats(db.sequences, StepTable(fst, db.dict, 2));
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].pivot, db.dict.ItemByName("a1"));
  EXPECT_EQ(stats[0].num_sequences, 3u);
  EXPECT_EQ(stats[1].pivot, db.dict.ItemByName("c"));
  EXPECT_EQ(stats[1].num_sequences, 1u);
  EXPECT_GT(stats[0].total_bytes, 0u);
}

TEST(PartitionStatsTest, ParallelMatchesSerial) {
  SequenceDatabase db = testing::RandomDatabase(31, 8, 80, 8);
  Fst fst = CompileFst(".*(.^)[.{0,1}(.^)]{1,2}.*", db.dict);
  const StepTable table(fst, db.dict, 2);
  auto serial = ComputePartitionStats(db.sequences, table, 1);
  testing::ForEachWorkerCount([&](int workers) {
    auto parallel = ComputePartitionStats(db.sequences, table, workers);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i].pivot, parallel[i].pivot);
      EXPECT_EQ(serial[i].num_sequences, parallel[i].num_sequences);
      EXPECT_EQ(serial[i].total_bytes, parallel[i].total_bytes);
    }
  });
}

TEST(PartitionStatsTest, SummaryMeasures) {
  std::vector<PartitionStats> stats = {
      {1, 10, 100},
      {2, 10, 100},
      {3, 10, 200},
  };
  BalanceSummary summary = SummarizeBalance(stats);
  EXPECT_EQ(summary.num_partitions, 3u);
  EXPECT_EQ(summary.total_bytes, 400u);
  EXPECT_NEAR(summary.max_to_mean_bytes, 200.0 / (400.0 / 3), 1e-9);
  EXPECT_NEAR(summary.largest_share, 0.5, 1e-9);
}

TEST(PartitionStatsTest, EmptySummary) {
  BalanceSummary summary = SummarizeBalance({});
  EXPECT_EQ(summary.num_partitions, 0u);
  EXPECT_EQ(summary.total_bytes, 0u);
  EXPECT_EQ(summary.num_reducers, 0);
}

TEST(PartitionStatsTest, ReducerViewCountsEmptyReducers) {
  // Three equal pivots on eight reducers: the per-pivot view says perfectly
  // balanced (max/mean 1.0), but at least five reducers are idle — the
  // per-reducer view must say so instead of understating the imbalance.
  std::vector<PartitionStats> stats = {
      {1, 10, 100},
      {2, 10, 100},
      {3, 10, 100},
  };
  BalanceSummary summary = SummarizeBalance(stats, 8);
  EXPECT_NEAR(summary.max_to_mean_bytes, 1.0, 1e-9);
  EXPECT_EQ(summary.num_reducers, 8);
  // Even with zero hash collisions the largest reducer holds 100 of 300
  // bytes against a mean of 300/8.
  EXPECT_GE(summary.max_to_mean_reducer_bytes, 8.0 / 3 - 1e-9);
  EXPECT_GE(summary.largest_reducer_share, 1.0 / 3 - 1e-9);
  EXPECT_GE(summary.max_reducer_bytes, 100u);
}

TEST(PartitionStatsTest, SummarizeReducerBytesMeasures) {
  BalanceSummary summary = SummarizeReducerBytes({0, 0, 300, 100});
  EXPECT_EQ(summary.num_reducers, 4);
  EXPECT_EQ(summary.total_bytes, 400u);
  EXPECT_EQ(summary.max_reducer_bytes, 300u);
  EXPECT_NEAR(summary.max_to_mean_reducer_bytes, 3.0, 1e-9);
  EXPECT_NEAR(summary.largest_reducer_share, 0.75, 1e-9);

  BalanceSummary empty = SummarizeReducerBytes({});
  EXPECT_EQ(empty.num_reducers, 0);
  EXPECT_EQ(empty.total_bytes, 0u);

  BalanceSummary idle = SummarizeReducerBytes({0, 0});
  EXPECT_EQ(idle.num_reducers, 2);
  EXPECT_EQ(idle.max_to_mean_reducer_bytes, 0.0);
}

TEST(PartitionStatsTest, MoreWorkersThanSequencesRegression) {
  // |db| = 3 with 8 workers: five shards are empty; stats must match the
  // serial run exactly (and not crash or drop sequences).
  SequenceDatabase db = MakeRunningExample();
  db.sequences.resize(3);
  Fst fst = CompileFst(kPatternEx, db.dict);
  const StepTable table(fst, db.dict, 1);
  auto serial = ComputePartitionStats(db.sequences, table, 1);
  auto wide = ComputePartitionStats(db.sequences, table, 8);
  ASSERT_EQ(serial.size(), wide.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].pivot, wide[i].pivot);
    EXPECT_EQ(serial[i].num_sequences, wide[i].num_sequences);
    EXPECT_EQ(serial[i].total_bytes, wide[i].total_bytes);
  }
  // Degenerate sizes stay well-defined.
  EXPECT_TRUE(ComputePartitionStats({}, table, 8).empty());
}

TEST(PartitionStatsTest, StatsMatchEngineShuffleAccounting) {
  // PartitionStats::total_bytes uses the engine's byte accounting, so the
  // measured stats must sum to exactly what an (uncombined) D-SEQ run
  // reports as shuffle_bytes — the invariant that makes plans projected
  // from stats match the loads the run then measures.
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  std::vector<PartitionStats> stats =
      ComputePartitionStats(db.sequences, StepTable(fst, db.dict, 2));
  uint64_t stats_bytes = 0;
  for (const PartitionStats& p : stats) stats_bytes += p.total_bytes;

  DSeqOptions options;
  options.sigma = 2;
  DistributedResult run = MineDSeq(db.sequences, fst, db.dict, options);
  EXPECT_EQ(stats_bytes, run.metrics.shuffle_bytes);
}

TEST(PartitionStatsTest, FrequentItemsReceiveLittleData) {
  // The paper's balance argument: partitions of frequent items (small fids)
  // should not dominate the shuffle volume.
  SequenceDatabase db = testing::RandomDatabase(33, 10, 300, 10);
  Fst fst = CompileFst(".*(.^)[.{0,1}(.^)]{1,2}.*", db.dict);
  std::vector<PartitionStats> stats =
      ComputePartitionStats(db.sequences, StepTable(fst, db.dict, 2));
  ASSERT_GT(stats.size(), 2u);
  BalanceSummary summary = SummarizeBalance(stats);
  // No partition holds everything.
  EXPECT_LT(summary.largest_share, 0.9);
}

}  // namespace
}  // namespace dseq
