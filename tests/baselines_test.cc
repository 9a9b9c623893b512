#include <gtest/gtest.h>

#include "src/baselines/gap_miner.h"
#include "src/baselines/prefix_span.h"
#include "src/core/desq_dfs.h"
#include "src/dict/sequence.h"
#include "src/fst/compiler.h"
#include "tests/test_util.h"

namespace dseq {
namespace {

// The T2/T3 constraints as pattern expressions (paper Tab. III, with the
// enclosing .* that DESQ's whole-sequence match semantics requires).
std::string T2Pattern(uint32_t gamma, uint32_t lambda) {
  return ".*(.)[.{0," + std::to_string(gamma) + "}(.)]{1," +
         std::to_string(lambda - 1) + "}.*";
}
std::string T3Pattern(uint32_t gamma, uint32_t lambda) {
  return ".*(.^)[.{0," + std::to_string(gamma) + "}(.^)]{1," +
         std::to_string(lambda - 1) + "}.*";
}
std::string T1Pattern(uint32_t lambda) {
  return ".*(.)[.*(.)]{0," + std::to_string(lambda - 1) + "}.*";
}

TEST(GapMinerTest, SimpleNoHierarchy) {
  DictionaryBuilder builder;
  ItemId a = builder.AddItem("a");
  ItemId b = builder.AddItem("b");
  builder.AddItem("c");
  SequenceDatabase db;
  db.dict = builder.Build();
  db.sequences = {{a, b}, {a, b}, {b, a}};
  db.Recode();

  GapMinerOptions options;
  options.sigma = 2;
  options.gamma = 0;
  options.lambda = 2;
  options.use_hierarchy = false;
  DistributedResult result =
      MineGapConstrained(db.sequences, db.dict, options);
  // "a b" occurs in sequences 0 and 1; "b a" only in sequence 2.
  ASSERT_EQ(result.patterns.size(), 1u);
  EXPECT_EQ(db.FormatSequence(result.patterns[0].pattern), "a b");
  EXPECT_EQ(result.patterns[0].frequency, 2u);
}

TEST(GapMinerTest, GapLimitsRespected) {
  DictionaryBuilder builder;
  ItemId a = builder.AddItem("a");
  ItemId b = builder.AddItem("b");
  ItemId x = builder.AddItem("x");
  SequenceDatabase db;
  db.dict = builder.Build();
  db.sequences = {{a, x, x, b}, {a, x, x, b}};
  db.Recode();

  GapMinerOptions tight;
  tight.sigma = 2;
  tight.gamma = 1;
  tight.lambda = 2;
  tight.use_hierarchy = false;
  DistributedResult r1 = MineGapConstrained(db.sequences, db.dict, tight);
  // a..b has two items between: not reachable with gamma=1.
  for (const auto& pc : r1.patterns) {
    EXPECT_NE(db.FormatSequence(pc.pattern), "a b");
  }

  GapMinerOptions loose = tight;
  loose.gamma = 2;
  DistributedResult r2 = MineGapConstrained(db.sequences, db.dict, loose);
  bool found = false;
  for (const auto& pc : r2.patterns) {
    if (db.FormatSequence(pc.pattern) == "a b") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(GapMinerTest, HierarchyGeneralizes) {
  SequenceDatabase db = MakeRunningExample();
  GapMinerOptions options;
  options.sigma = 2;
  options.gamma = 0;
  options.lambda = 2;
  options.use_hierarchy = true;
  DistributedResult result =
      MineGapConstrained(db.sequences, db.dict, options);
  // "A b" generalizes a1 b (T5) and a2... a2 b is not adjacent in T4 (a2 d
  // b), but "A b" from T5 (a1 b adjacent? T5 = a1 a1 b: yes) and "d b" from
  // T4/T1? T1 ends c b. Check a couple of expected patterns.
  bool found_Ab = false;
  for (const auto& pc : result.patterns) {
    if (db.FormatSequence(pc.pattern) == "A b") found_Ab = true;
  }
  // A b: T5 (a1 b adjacent) and T2 (a1 b? T2 = ..a1 e b: gap 1, not 0).
  // So A b is only in T5 at gamma=0 => infrequent at sigma=2.
  EXPECT_FALSE(found_Ab);

  options.gamma = 1;
  result = MineGapConstrained(db.sequences, db.dict, options);
  for (const auto& pc : result.patterns) {
    if (db.FormatSequence(pc.pattern) == "A b") found_Ab = true;
  }
  EXPECT_TRUE(found_Ab);  // now T2 and T5 support it
}

class GapMinerPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, bool>> {};

TEST_P(GapMinerPropertyTest, MatchesDesqDfsOnGapConstraints) {
  auto [seed, gamma, lambda, hierarchy] = GetParam();
  SequenceDatabase db = testing::RandomDatabase(seed + 40, 10, 40, 9);
  std::string pattern =
      hierarchy ? T3Pattern(gamma, lambda) : T2Pattern(gamma, lambda);
  Fst fst = CompileFst(pattern, db.dict);
  for (uint64_t sigma : {2, 3}) {
    DesqDfsOptions seq_options;
    seq_options.sigma = sigma;
    MiningResult expected =
        MineDesqDfs(db.sequences, fst, db.dict, seq_options);

    GapMinerOptions options;
    options.sigma = sigma;
    options.gamma = gamma;
    options.lambda = lambda;
    options.use_hierarchy = hierarchy;
    options.num_map_workers = 2;
    options.num_reduce_workers = 2;
    DistributedResult actual =
        MineGapConstrained(db.sequences, db.dict, options);
    EXPECT_EQ(actual.patterns, expected)
        << "gamma=" << gamma << " lambda=" << lambda << " sigma=" << sigma
        << " hierarchy=" << hierarchy << "\nactual:\n"
        << testing::Format(actual.patterns, db.dict) << "expected:\n"
        << testing::Format(expected, db.dict);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomizedGapMiner, GapMinerPropertyTest,
                         ::testing::Combine(::testing::Values(1, 2),
                                            ::testing::Values(0, 1, 2),
                                            ::testing::Values(2, 3, 4),
                                            ::testing::Bool()));

TEST(GapMinerTest, MinLengthOneMatchesPrefixSpanWithUnboundedGap) {
  // Regression: with min_length = 1 every frequent item is a pivot even
  // without a partner within gap reach (the MLlib-setting configuration).
  SequenceDatabase db = testing::RandomDatabase(71, 9, 60, 7);
  GapMinerOptions gap;
  gap.sigma = 3;
  gap.gamma = 1'000'000;  // arbitrary gaps
  gap.lambda = 3;
  gap.min_length = 1;
  gap.use_hierarchy = false;
  DistributedResult lash = MineGapConstrained(db.sequences, db.dict, gap);

  PrefixSpanOptions ps;
  ps.sigma = 3;
  ps.lambda = 3;
  DistributedResult mllib = MinePrefixSpan(db.sequences, db.dict, ps);
  EXPECT_EQ(lash.patterns, mllib.patterns);
  EXPECT_FALSE(lash.patterns.empty());
}

TEST(PrefixSpanTest, Simple) {
  DictionaryBuilder builder;
  ItemId a = builder.AddItem("a");
  ItemId b = builder.AddItem("b");
  ItemId c = builder.AddItem("c");
  SequenceDatabase db;
  db.dict = builder.Build();
  db.sequences = {{a, b, c}, {a, c}, {b, c}};
  db.Recode();

  PrefixSpanOptions options;
  options.sigma = 2;
  options.lambda = 3;
  DistributedResult result = MinePrefixSpan(db.sequences, db.dict, options);
  // Frequent: a(2), b(2), c(3), ac(2), bc(2), and not abc (1).
  EXPECT_EQ(result.patterns.size(), 5u)
      << testing::Format(result.patterns, db.dict);
}

TEST(PrefixSpanTest, MaxLengthRespected) {
  DictionaryBuilder builder;
  ItemId a = builder.AddItem("a");
  SequenceDatabase db;
  db.dict = builder.Build();
  db.sequences = {{a, a, a, a}, {a, a, a, a}};
  db.Recode();
  PrefixSpanOptions options;
  options.sigma = 2;
  options.lambda = 3;
  DistributedResult result = MinePrefixSpan(db.sequences, db.dict, options);
  for (const auto& pc : result.patterns) {
    EXPECT_LE(pc.pattern.size(), 3u);
  }
  EXPECT_EQ(result.patterns.size(), 3u);  // a, aa, aaa
}

TEST(PrefixSpanTest, LambdaZeroYieldsNothing) {
  // A length bound of 0 admits no pattern; the miner must neither mine nor
  // underflow its recursion depth.
  SequenceDatabase db = testing::RandomDatabase(4450, 6, 20, 6);
  PrefixSpanOptions options;
  options.sigma = 1;
  options.lambda = 0;
  EXPECT_TRUE(MinePrefixSpan(db.sequences, db.dict, options).patterns.empty());
}

class PrefixSpanPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PrefixSpanPropertyTest, MatchesDesqDfsOnT1) {
  int seed = GetParam();
  SequenceDatabase db = testing::RandomDatabase(seed + 60, 9, 30, 7);
  for (uint32_t lambda : {2, 4}) {
    Fst fst = CompileFst(T1Pattern(lambda), db.dict);
    for (uint64_t sigma : {2, 3}) {
      DesqDfsOptions seq_options;
      seq_options.sigma = sigma;
      MiningResult expected =
          MineDesqDfs(db.sequences, fst, db.dict, seq_options);

      PrefixSpanOptions options;
      options.sigma = sigma;
      options.lambda = lambda;
      options.num_map_workers = 2;
      options.num_reduce_workers = 2;
      DistributedResult actual =
          MinePrefixSpan(db.sequences, db.dict, options);
      EXPECT_EQ(actual.patterns, expected)
          << "lambda=" << lambda << " sigma=" << sigma << "\nactual:\n"
          << testing::Format(actual.patterns, db.dict) << "expected:\n"
          << testing::Format(expected, db.dict);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomizedPrefixSpan, PrefixSpanPropertyTest,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace dseq
