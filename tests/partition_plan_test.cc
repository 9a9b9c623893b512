// Partition planning: plan construction (LPT packing, bundling, range
// splits), key coding, and the plan-driven miner's byte-identity against
// hash-partitioned D-SEQ and the brute-force oracle — plus the acceptance
// bar of the partition-balance work: >= 2x better measured reducer balance
// on a skewed Zipf hierarchy.
#include "src/dist/partition_plan.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "src/dataflow/shuffle_buffer.h"
#include "src/datagen/skewed_zipf.h"
#include "src/dict/sequence.h"
#include "src/dist/dseq_miner.h"
#include "src/fst/compiler.h"
#include "tests/test_util.h"

namespace dseq {
namespace {

TEST(PivotKeyPartsTest, RoundTrip) {
  for (ItemId pivot : {ItemId{1}, ItemId{127}, ItemId{128}, ItemId{65536}}) {
    PivotKeyParts plain = DecodePivotKeyParts(EncodePivotKey(pivot));
    EXPECT_EQ(plain.pivot, pivot);
    EXPECT_EQ(plain.subpartition, -1);
    for (int sub : {0, 1, 7, 300}) {
      PivotKeyParts parts =
          DecodePivotKeyParts(EncodeSubpartitionKey(pivot, sub));
      EXPECT_EQ(parts.pivot, pivot);
      EXPECT_EQ(parts.subpartition, sub);
    }
  }
}

TEST(PivotKeyPartsTest, MalformedKeysThrow) {
  EXPECT_THROW(DecodePivotKeyParts(""), std::invalid_argument);
  EXPECT_THROW(DecodePivotKeyParts(std::string(1, '\x80')),
               std::invalid_argument);
  // Reserved pivot id 0.
  EXPECT_THROW(DecodePivotKeyParts(std::string(1, '\0')),
               std::invalid_argument);
  // Trailing bytes after the sub-partition varint.
  std::string three = EncodeSubpartitionKey(5, 1);
  three += '\x01';
  EXPECT_THROW(DecodePivotKeyParts(three), std::invalid_argument);
}

TEST(PartitionPlanTest, EmptyStatsBehavesLikeHash) {
  PartitionPlanOptions options;
  options.num_reducers = 4;
  PartitionPlan plan = BuildPartitionPlan({}, 100, options);
  EXPECT_TRUE(plan.assignments.empty());
  EXPECT_TRUE(plan.splits.empty());
  for (ItemId pivot : {ItemId{1}, ItemId{9}, ItemId{200}}) {
    std::string key = EncodePivotKey(pivot);
    EXPECT_EQ(plan.ReducerForKey(key), ShuffleReducerForKey(key, 4));
  }
}

TEST(PartitionPlanTest, BundlesLightPivotsAndSplitsHeavyOnes) {
  // One dominating pivot (half the bytes) plus twenty equal light pivots.
  std::vector<PartitionStats> stats;
  stats.push_back(PartitionStats{1, 100, 1000});
  for (ItemId p = 2; p <= 21; ++p) stats.push_back(PartitionStats{p, 5, 50});
  PartitionPlanOptions options;
  options.num_reducers = 4;
  PartitionPlan plan = BuildPartitionPlan(stats, 100, options);

  // The heavy pivot is split (1000 > 2000/4), the light ones are not.
  ASSERT_EQ(plan.splits.size(), 1u);
  EXPECT_EQ(plan.splits[0].pivot, 1u);
  EXPECT_GE(plan.splits[0].num_subpartitions(), 2);
  EXPECT_EQ(plan.assignments.size(), 20u);

  // Every slot landed on a valid reducer and the projected loads conserve
  // the measured bytes.
  uint64_t planned_total = 0;
  for (uint64_t b : plan.planned_reducer_bytes) planned_total += b;
  EXPECT_EQ(planned_total, 2000u);
  for (const auto& [pivot, reducer] : plan.assignments) {
    EXPECT_GE(reducer, 0);
    EXPECT_LT(reducer, 4);
  }
  for (int reducer : plan.splits[0].reducers) {
    EXPECT_GE(reducer, 0);
    EXPECT_LT(reducer, 4);
  }

  // LPT + split lands close to perfectly even; hash assignment of the same
  // stats is at least 2x worse (pivot 1 alone is 2x the mean).
  BalanceSummary planned = SummarizePlannedBalance(plan);
  EXPECT_LE(planned.max_to_mean_reducer_bytes, 1.3);
  BalanceSummary hashed = SummarizeBalance(stats, 4);
  EXPECT_GE(hashed.max_to_mean_reducer_bytes, 2.0);

  // Light pivots were bundled: 20 pivots share at most 4 reducers.
  EXPECT_LE(plan.assignments.size(), 20u);
  // Sub-partition keys of the split pivot route to the planned reducers.
  for (int s = 0; s < plan.splits[0].num_subpartitions(); ++s) {
    EXPECT_EQ(plan.ReducerForKey(EncodeSubpartitionKey(1, s)),
              plan.splits[0].reducers[s]);
  }
}

TEST(PartitionPlanTest, DeterministicForSameInputs) {
  std::vector<PartitionStats> stats;
  for (ItemId p = 1; p <= 30; ++p) {
    stats.push_back(PartitionStats{p, p, p * 37u % 400u + 1});
  }
  PartitionPlanOptions options;
  options.num_reducers = 5;
  PartitionPlan a = BuildPartitionPlan(stats, 64, options);
  PartitionPlan b = BuildPartitionPlan(stats, 64, options);
  EXPECT_EQ(a.assignments, b.assignments);
  EXPECT_EQ(a.planned_reducer_bytes, b.planned_reducer_bytes);
  ASSERT_EQ(a.splits.size(), b.splits.size());
  for (size_t i = 0; i < a.splits.size(); ++i) {
    EXPECT_EQ(a.splits[i].pivot, b.splits[i].pivot);
    EXPECT_EQ(a.splits[i].reducers, b.splits[i].reducers);
  }
}

TEST(PartitionPlanTest, SubpartitionRangesCoverTheInputSpace) {
  PartitionPlan plan;
  plan.num_inputs = 10;
  PivotSplit split;
  split.reducers = {0, 1, 2, 3};
  // The range split is monotone over the index space, starts at 0, ends at
  // K-1, and hits every sub-partition.
  int prev = 0;
  std::vector<int> seen(4, 0);
  for (size_t i = 0; i < plan.num_inputs; ++i) {
    int sub = plan.SubpartitionForIndex(split, i);
    EXPECT_GE(sub, prev);
    EXPECT_LT(sub, 4);
    seen[sub] += 1;
    prev = sub;
  }
  EXPECT_EQ(plan.SubpartitionForIndex(split, 0), 0);
  EXPECT_EQ(plan.SubpartitionForIndex(split, plan.num_inputs - 1), 3);
  for (int s = 0; s < 4; ++s) EXPECT_GT(seen[s], 0) << s;
}

TEST(PartitionPlanTest, PartitionerFallsBackOnForeignReducerCount) {
  std::vector<PartitionStats> stats = {{1, 10, 500}, {2, 10, 500}};
  PartitionPlanOptions options;
  options.num_reducers = 4;
  PartitionPlan plan = BuildPartitionPlan(stats, 20, options);
  PartitionerFn partitioner = plan.MakePartitioner();
  std::string key = EncodePivotKey(1);
  EXPECT_EQ(partitioner(key, 8), ShuffleReducerForKey(key, 8));
  EXPECT_EQ(partitioner(key, 4), plan.ReducerForKey(key));
}

// --- the plan-driven miner -------------------------------------------------

TEST(MineDSeqBalancedTest, ByteIdenticalToHashAndBruteForce) {
  SequenceDatabase db = testing::RandomDatabase(4100, 7, 60, 8);
  for (const char* pattern :
       {".*(.^).*", ".*(.^)[.{0,1}(.^)]{1,2}.*", ".*(i0)[(.^).*]*(i1).*"}) {
    Fst fst = CompileFst(pattern, db.dict);
    for (uint64_t sigma : {1, 3}) {
      MiningResult expected =
          testing::BruteForceMine(db.sequences, fst, db.dict, sigma);
      testing::ForEachWorkerCount([&](int workers) {
        DSeqOptions hash_options;
        hash_options.sigma = sigma;
        hash_options.num_map_workers = workers;
        hash_options.num_reduce_workers = workers;
        EXPECT_EQ(MineDSeq(db.sequences, fst, db.dict, hash_options).patterns,
                  expected)
            << pattern << " sigma=" << sigma;

        DSeqBalanceOptions balanced_options;
        static_cast<DSeqOptions&>(balanced_options) = hash_options;
        EXPECT_EQ(MineDSeqBalanced(db.sequences, fst, db.dict,
                                   balanced_options)
                      .patterns,
                  expected)
            << "balanced, " << pattern << " sigma=" << sigma;

        // Aggressive splitting (everything above a quarter of the fair
        // share) must not change results either.
        balanced_options.split_factor = 0.25;
        PartitionPlan plan;
        EXPECT_EQ(MineDSeqBalanced(db.sequences, fst, db.dict,
                                   balanced_options, &plan)
                      .patterns,
                  expected)
            << "split-heavy, " << pattern << " sigma=" << sigma;
        if (workers > 1) {
          EXPECT_GT(plan.splits.size() + plan.assignments.size(), 0u);
        }
      });
    }
  }
}

TEST(MineDSeqBalancedTest, AggregatedSequencesStayIdentical) {
  SequenceDatabase db = testing::RandomDatabase(4200, 6, 80, 6);
  Fst fst = CompileFst(".*(.^).*", db.dict);
  DSeqOptions hash_options;
  hash_options.sigma = 2;
  hash_options.num_map_workers = 4;
  hash_options.num_reduce_workers = 4;
  hash_options.aggregate_sequences = true;
  MiningResult expected =
      MineDSeq(db.sequences, fst, db.dict, hash_options).patterns;
  DSeqBalanceOptions balanced_options;
  static_cast<DSeqOptions&>(balanced_options) = hash_options;
  balanced_options.split_factor = 0.5;
  EXPECT_EQ(
      MineDSeqBalanced(db.sequences, fst, db.dict, balanced_options).patterns,
      expected);
}

TEST(MineDSeqBalancedTest, SplitPivotsReconcileInSecondRound) {
  SkewedZipfOptions gen;
  gen.seed = 77;
  gen.num_items = 50;
  gen.num_groups = 1;
  gen.num_sequences = 150;
  gen.max_length = 16;
  gen.zipf_exponent = 1.5;
  SequenceDatabase db = GenerateSkewedZipf(gen);
  Fst fst = CompileFst(".*(.^).*", db.dict);
  const uint64_t sigma = 2;

  MiningResult expected =
      testing::BruteForceMine(db.sequences, fst, db.dict, sigma);
  DSeqBalanceOptions options;
  options.sigma = sigma;
  options.num_map_workers = 8;
  options.num_reduce_workers = 8;
  PartitionPlan plan;
  DistributedResult result =
      MineDSeqBalanced(db.sequences, fst, db.dict, options, &plan);
  // The coarse hierarchy forces at least one split, so the run reconciles
  // in a second round — and still matches the oracle exactly.
  EXPECT_GT(plan.splits.size(), 0u);
  EXPECT_EQ(result.num_rounds(), 2u);
  EXPECT_EQ(result.patterns, expected);
  EXPECT_GT(result.round_metrics[1].shuffle_bytes, 0u);
}

TEST(MineDSeqBalancedTest, BalanceImprovesAtLeastTwofoldOnSkewedZipf) {
  // The acceptance bar of the partition-balance work: on the skewed Zipf
  // hierarchy the planned run's measured per-reducer balance must beat hash
  // partitioning by >= 2x while the patterns stay byte-identical.
  SkewedZipfOptions gen;
  gen.seed = 101;
  gen.num_items = 60;
  gen.num_groups = 1;
  gen.num_sequences = 200;
  gen.max_length = 20;
  gen.zipf_exponent = 1.5;
  SequenceDatabase db = GenerateSkewedZipf(gen);
  Fst fst = CompileFst(".*(.^).*", db.dict);

  DSeqOptions hash_options;
  hash_options.sigma = 2;
  hash_options.num_map_workers = 4;
  hash_options.num_reduce_workers = 16;
  DistributedResult hash_run =
      MineDSeq(db.sequences, fst, db.dict, hash_options);
  double before = SummarizeReducerBytes(hash_run.metrics.reducer_bytes)
                      .max_to_mean_reducer_bytes;

  DSeqBalanceOptions balanced_options;
  static_cast<DSeqOptions&>(balanced_options) = hash_options;
  DistributedResult balanced =
      MineDSeqBalanced(db.sequences, fst, db.dict, balanced_options);
  double after =
      SummarizeReducerBytes(balanced.round_metrics.front().reducer_bytes)
          .max_to_mean_reducer_bytes;

  EXPECT_EQ(balanced.patterns, hash_run.patterns);
  ASSERT_GT(after, 0.0);
  EXPECT_GE(before / after, 2.0) << "before=" << before << " after=" << after;
}

TEST(MineDSeqBalancedTest, ShuffleBudgetTripReleasesBuffers) {
  SequenceDatabase db = testing::RandomDatabase(4300, 6, 80, 8);
  Fst fst = CompileFst(".*(.^).*", db.dict);

  // A custom partitioner that funnels everything onto reducer 0 plus a tiny
  // budget: the run must die mid-round with ShuffleOverflowError and leave
  // no shuffle bytes resident.
  DSeqOptions options;
  options.sigma = 2;
  options.num_map_workers = 4;
  options.num_reduce_workers = 4;
  options.shuffle_budget_bytes = 64;
  options.partitioner = [](std::string_view, int) { return 0; };
  EXPECT_THROW(MineDSeq(db.sequences, fst, db.dict, options),
               ShuffleOverflowError);
  EXPECT_EQ(ShuffleBufferLiveBytes(), 0u);

  DSeqBalanceOptions balanced_options;
  balanced_options.sigma = 2;
  balanced_options.num_map_workers = 4;
  balanced_options.num_reduce_workers = 4;
  balanced_options.shuffle_budget_bytes = 64;
  EXPECT_THROW(MineDSeqBalanced(db.sequences, fst, db.dict, balanced_options),
               ShuffleOverflowError);
  EXPECT_EQ(ShuffleBufferLiveBytes(), 0u);
}

TEST(MineDSeqBalancedTest, RejectsCallerSuppliedPartitioner) {
  // The balanced run installs the plan's hook; a caller-supplied one must
  // fail loudly instead of being silently discarded.
  SequenceDatabase db = testing::RandomDatabase(4500, 5, 10, 5);
  Fst fst = CompileFst(".*(.^).*", db.dict);
  DSeqBalanceOptions options;
  options.sigma = 2;
  options.partitioner = [](std::string_view, int) { return 0; };
  EXPECT_THROW(MineDSeqBalanced(db.sequences, fst, db.dict, options),
               std::invalid_argument);
}

TEST(MineDSeqBalancedTest, CompressionLeavesBothRoundsUnchanged) {
  // Forced splits make a two-round job; the block codec changes neither the
  // patterns nor either round's raw shuffle volume, and compresses every
  // round that shuffled anything.
  SequenceDatabase db = testing::RandomDatabase(4950, 7, 40, 8);
  Fst fst = CompileFst(".*(.^).*", db.dict);
  DSeqBalanceOptions options;
  options.sigma = 2;
  options.num_map_workers = 3;
  options.num_reduce_workers = 3;
  options.split_factor = 0.5;  // force splits
  DistributedResult plain =
      MineDSeqBalanced(db.sequences, fst, db.dict, options);
  ASSERT_EQ(plain.num_rounds(), 2u);
  options.compress_shuffle = true;
  DistributedResult compressed =
      MineDSeqBalanced(db.sequences, fst, db.dict, options);
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

}  // namespace
}  // namespace dseq
