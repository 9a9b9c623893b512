// Death tests for the planted invariant layer (src/util/check.h): the
// always-on CHECKs must abort with a diagnostic naming the failure, the
// debug-only DCHECKs must abort when live and cost nothing (not even
// condition evaluation) when compiled out.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>

#include "src/dist/distributed.h"
#include "src/dist/dseq_miner.h"
#include "src/dist/partition_plan.h"
#include "src/fst/compiler.h"
#include "src/spill/memory_budget.h"
#include "src/spill/spill_file.h"
#include "src/util/check.h"
#include "tests/test_util.h"

namespace dseq {
namespace {

TEST(CheckMacroTest, PassingChecksAreSilent) {
  DSEQ_CHECK(true);
  DSEQ_CHECK_MSG(1 + 1 == 2, "arithmetic broke");
  DSEQ_CHECK_EQ(3, 3);
  DSEQ_CHECK_NE(3, 4);
  DSEQ_CHECK_LE(3, 3);
  DSEQ_CHECK_LT(3, 4);
  DSEQ_CHECK_GE(4, 3);
  DSEQ_CHECK_GT(4, 3);
  DSEQ_DCHECK(true);
  DSEQ_DCHECK_EQ(std::string_view("a"), std::string_view("a"));
}

TEST(CheckMacroDeathTest, FailedCheckNamesTheCondition) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(DSEQ_CHECK(2 + 2 == 5), "DSEQ_CHECK failed at .*: 2 \\+ 2 == 5");
}

TEST(CheckMacroDeathTest, FailedCheckMsgCarriesTheMessage) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(DSEQ_CHECK_MSG(false, std::string("the budget wrapped")),
               "DSEQ_CHECK failed at .*: false \\(the budget wrapped\\)");
}

TEST(CheckMacroDeathTest, ComparisonChecksPrintBothOperands) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(DSEQ_CHECK_EQ(3, 4), "3 == 4 \\(3 vs 4\\)");
  EXPECT_DEATH(DSEQ_CHECK_LE(10, 7), "10 <= 7 \\(10 vs 7\\)");
}

#if DSEQ_DCHECK_IS_ON
TEST(CheckMacroDeathTest, DcheckAbortsWhenOn) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(DSEQ_DCHECK(false), "DSEQ_CHECK failed");
  EXPECT_DEATH(DSEQ_DCHECK_EQ(1, 2), "1 vs 2");
}
#else
TEST(CheckMacroTest, CompiledOutDcheckDoesNotEvaluateTheCondition) {
  int evaluations = 0;
  auto count = [&]() {
    ++evaluations;
    return false;
  };
  DSEQ_DCHECK(count());
  DSEQ_DCHECK_MSG(count(), "never printed");
  DSEQ_DCHECK_EQ(count(), true);
  EXPECT_EQ(evaluations, 0);
}
#endif

// --- MemoryBudget double release (always-on CHECK) --------------------------

TEST(MemoryBudgetDeathTest, DoubleReleaseAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  MemoryBudget budget(1024);
  ASSERT_TRUE(budget.TryCharge(100));
  budget.Release(100);
  EXPECT_DEATH(budget.Release(100),
               "exceeds the charged balance .*double release");
}

TEST(MemoryBudgetDeathTest, ReleasingMoreThanChargedAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  MemoryBudget budget(1024);
  ASSERT_TRUE(budget.TryCharge(64));
  EXPECT_DEATH(budget.Release(65), "Release of 65 bytes exceeds");
}

TEST(MemoryBudgetDeathTest, DisabledBudgetIgnoresReleases) {
  // budget 0 = unlimited: no accounting, so no symmetry to enforce.
  MemoryBudget budget(0);
  budget.Release(1 << 30);  // must not abort
  EXPECT_EQ(budget.used_bytes(), 0u);
}

// --- PartitionPlan out-of-range reducer (DCHECK) ----------------------------

#if DSEQ_DCHECK_IS_ON
TEST(PartitionPlanDeathTest, OutOfRangeAssignmentAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // BuildPartitionPlan can never produce this (its construction CHECKs
  // would fire), so model the real hazard: a plan mutated or deserialized
  // out of range after construction.
  PartitionPlan plan;
  plan.num_reducers = 2;
  plan.assignments.emplace_back(ItemId{7}, 5);
  EXPECT_DEATH(plan.ReducerForKey(EncodePivotKey(ItemId{7})),
               "out-of-range reducer");
}

TEST(PartitionPlanDeathTest, OutOfRangeSplitReducerAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  PartitionPlan plan;
  plan.num_reducers = 2;
  plan.num_inputs = 10;
  PivotSplit split;
  split.pivot = ItemId{7};
  split.reducers = {0, -1};
  plan.splits.push_back(std::move(split));
  EXPECT_DEATH(plan.ReducerForKey(EncodeSubpartitionKey(ItemId{7}, 1)),
               "out-of-range reducer");
}
#endif

TEST(PartitionPlanTest, InRangePlanRoutesWithoutAborting) {
  PartitionPlan plan;
  plan.num_reducers = 4;
  plan.assignments.emplace_back(ItemId{7}, 3);
  EXPECT_EQ(plan.ReducerForKey(EncodePivotKey(ItemId{7})), 3);
}

// --- PivotRewriter called with a non-pivot (DCHECK) -------------------------

#if DSEQ_DCHECK_IS_ON
TEST(PivotRewriterDeathTest, RewriteOfANonPivotAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(".*(A)[(.^).*]*(b).*", db.dict);
  GridOptions options;
  options.prune_sigma = 2;
  const Sequence& T2 = db.sequences[1];
  StateGrid grid = StateGrid::Build(T2, fst, db.dict, options);
  PivotRewriter rewriter(T2, grid);
  ASSERT_FALSE(rewriter.pivots().empty());
  const Sequence& pivots = rewriter.pivots();
  auto non_pivot = std::find_if(T2.begin(), T2.end(), [&](ItemId w) {
    return !std::binary_search(pivots.begin(), pivots.end(), w);
  });
  ASSERT_NE(non_pivot, T2.end());
  EXPECT_DEATH(rewriter.Rewrite(*non_pivot), "DSEQ_CHECK failed");
}
#endif

// --- SpillWriter append-after-finish (always-on CHECK) ----------------------

TEST(SpillWriterDeathTest, AppendAfterFinishAborts) {
  // "fast" style on purpose: the forked child must not re-run the test body
  // (threadsafe style re-executes it), which would create a second spill
  // file it then leaks by aborting mid-test. This binary is single-threaded
  // here, which is the one precondition fast-style forking needs.
  ::testing::FLAGS_gtest_death_test_style = "fast";
  testing::ScopedTempDir dir;
  SpillFile file = SpillFile::Create(dir.path());
  SpillWriter writer(&file, /*compress=*/false, /*stats=*/nullptr);
  writer.Append("key", "value");
  writer.Finish();
  EXPECT_DEATH(writer.Append("key2", "value2"),
               "SpillWriter::Append after Finish");
}

}  // namespace
}  // namespace dseq
