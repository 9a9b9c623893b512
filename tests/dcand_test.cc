#include "src/dist/dcand_miner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/desq_dfs.h"
#include "src/dict/sequence.h"
#include "src/fst/compiler.h"
#include "tests/test_util.h"

namespace dseq {
namespace {

constexpr char kPatternEx[] = ".*(A)[(.^).*]*(b).*";

TEST(DCandTest, RunningExampleGolden) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  DCandOptions options;
  options.sigma = 2;
  DistributedResult result = MineDCand(db.sequences, fst, db.dict, options);
  MiningResult expected = {
      {db.ParseSequence("a1 b"), 3},
      {db.ParseSequence("a1 a1 b"), 2},
      {db.ParseSequence("a1 A b"), 2},
  };
  Canonicalize(&expected);
  EXPECT_EQ(result.patterns, expected)
      << testing::Format(result.patterns, db.dict);
}

TEST(DCandTest, PartitionReduceRejectsTheNoItemPivotKey) {
  // A reduce handed pivot kNoItem would mine its NFAs unrestricted, i.e.
  // patterns that belong to other partitions; the key decoder rejects it.
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  DCandOptions options;
  options.sigma = 1;
  std::map<std::string, std::vector<std::string>> partitions;
  const StepTable table(fst, db.dict, options.sigma);
  for (const Sequence& T : db.sequences) {
    MapDCandInput(T, table, options,
                  [&](std::string_view key, std::string_view value) {
                    partitions[std::string(key)].emplace_back(value);
                  });
  }
  ASSERT_FALSE(partitions.empty());
  for (const auto& [key, records] : partitions) {
    std::vector<std::string_view> values(records.begin(), records.end());
    EXPECT_FALSE(MineDCandPartition(key, values, options).empty());
    EXPECT_THROW(MineDCandPartition(std::string(1, '\0'), values, options),
                 std::invalid_argument);
  }
}

TEST(DCandTest, AggregationReducesShuffleRecords) {
  // Many identical sequences produce identical NFAs that the combiner must
  // aggregate into weighted NFAs.
  SequenceDatabase db = MakeRunningExample();
  std::vector<Sequence> repeated;
  for (int i = 0; i < 50; ++i) repeated.push_back(db.sequences[4]);
  Fst fst = CompileFst(kPatternEx, db.dict);

  DCandOptions with;
  with.sigma = 2;
  DCandOptions without = with;
  without.aggregate_nfas = false;
  DistributedResult r1 = MineDCand(repeated, fst, db.dict, with);
  DistributedResult r2 = MineDCand(repeated, fst, db.dict, without);
  EXPECT_EQ(r1.patterns, r2.patterns);
  EXPECT_LT(r1.metrics.shuffle_records, r2.metrics.shuffle_records);
  EXPECT_LT(r1.metrics.shuffle_bytes, r2.metrics.shuffle_bytes);
  EXPECT_EQ(r1.metrics.shuffle_records, 1u);  // one weighted NFA for P_a1
}

TEST(DCandTest, MinimizationReducesShuffleBytes) {
  SequenceDatabase db = MakeRunningExample();
  std::vector<Sequence> repeated;
  for (int i = 0; i < 10; ++i) repeated.push_back(db.sequences[0]);
  Fst fst = CompileFst(kPatternEx, db.dict);

  DCandOptions with;
  with.sigma = 2;
  with.aggregate_nfas = false;
  DCandOptions without = with;
  without.minimize_nfas = false;
  DistributedResult r1 = MineDCand(repeated, fst, db.dict, with);
  DistributedResult r2 = MineDCand(repeated, fst, db.dict, without);
  EXPECT_EQ(r1.patterns, r2.patterns);
  EXPECT_LT(r1.metrics.shuffle_bytes, r2.metrics.shuffle_bytes);
}

TEST(DCandTest, RunBudgetProducesOom) {
  // The state budget stands in for the paper's per-container memory: the
  // running example's pivot NFAs need more than one state each.
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  DCandOptions options;
  options.sigma = 2;
  options.max_nfa_states_per_sequence = 1;
  EXPECT_THROW(MineDCand(db.sequences, fst, db.dict, options),
               MiningBudgetError);
  for (bool minimize : {false, true}) {
    options.minimize_nfas = minimize;
    options.max_nfa_states_per_sequence = 1000;
    EXPECT_NO_THROW(MineDCand(db.sequences, fst, db.dict, options));
  }
}

TEST(MineNfasTest, WeightsSumAcrossNfas) {
  // Two weighted NFAs accepting {x}: support = sum of weights.
  OutputNfa a;
  a.AddLabelString({{5}});
  a.Canonicalize();
  OutputNfa b;
  b.AddLabelString({{5}, {3}});
  b.AddLabelString({{5}});
  b.Canonicalize();
  MiningResult result = MineNfas({a, b}, {3, 4}, /*sigma=*/5, /*pivot=*/5);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].pattern, (Sequence{5}));
  EXPECT_EQ(result[0].frequency, 7u);
}

TEST(MineNfasTest, NonPivotSequencesNotOutput) {
  OutputNfa a;
  a.AddLabelString({{2}, {5}});
  a.AddLabelString({{2}});
  a.Canonicalize();
  // Sequence {2} has pivot 2, not 5; must not be reported by partition 5.
  MiningResult result = MineNfas({a, a}, {1, 1}, 2, 5);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].pattern, (Sequence{2, 5}));
}

TEST(MineNfasTest, CandidateCountedOncePerNfa) {
  // An NFA accepting {x} along two paths still contributes its weight once.
  OutputNfa a;
  a.AddLabelString({{4, 5}});  // label set {4,5}: accepts "4" and "5"
  a.AddLabelString({{5}});
  a.Canonicalize();
  MiningResult result = MineNfas({a}, {2}, 1, 5);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].pattern, (Sequence{5}));
  EXPECT_EQ(result[0].frequency, 2u);
}

// Differential test of the decode-and-mine path against the NFAs'
// languages: a pattern's support in partition k is the weight of the
// distinct NFAs that accept it, over the strings with every item <= k that
// contain k. Minimized tries share suffixes, so their DFS numbering has
// edges to lower states, which AddNfa's topological renumbering handles.
TEST(MineNfasTest, MatchesLanguageOracle) {
  std::mt19937_64 rng(2024);
  bool saw_lower_target = false;
  for (int trial = 0; trial < 300; ++trial) {
    const ItemId pivot = static_cast<ItemId>(1 + rng() % 8);
    const uint64_t sigma = 1 + rng() % 4;
    std::vector<OutputNfa> nfas(1 + rng() % 10);
    std::vector<uint64_t> weights;
    std::map<Sequence, uint64_t> support;
    for (OutputNfa& nfa : nfas) {
      for (size_t r = 1 + rng() % 5; r > 0; --r) {
        std::vector<Sequence> label_string(1 + rng() % 4);
        for (Sequence& label : label_string) {
          for (size_t j = 1 + rng() % 3; j > 0; --j) {
            label.push_back(static_cast<ItemId>(1 + rng() % 10));
          }
          std::sort(label.begin(), label.end());
          label.erase(std::unique(label.begin(), label.end()), label.end());
        }
        nfa.AddLabelString(label_string);
      }
      nfa.Minimize();
      for (StateId q = 0; q < nfa.num_states(); ++q) {
        for (const OutputNfa::Edge& e : nfa.EdgesOf(q)) {
          saw_lower_target |= e.target < q;
        }
      }
      weights.push_back(1 + rng() % 3);
      std::vector<Sequence> language;
      ASSERT_TRUE(nfa.Language(1'000'000, &language));
      for (const Sequence& s : language) {
        if (PivotItem(s) == pivot) support[s] += weights.back();
      }
    }
    MiningResult expected;
    for (const auto& [pattern, count] : support) {
      if (count >= sigma) expected.push_back(PatternCount{pattern, count});
    }
    Canonicalize(&expected);
    EXPECT_EQ(MineNfas(nfas, weights, sigma, pivot), expected)
        << "trial " << trial << " pivot=" << pivot << " sigma=" << sigma;
  }
  EXPECT_TRUE(saw_lower_target);
}

class DCandPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, std::string>> {};

TEST_P(DCandPropertyTest, MatchesDesqDfs) {
  auto [seed, pattern] = GetParam();
  SequenceDatabase db = testing::RandomDatabase(seed + 900, 8, 40, 8);
  Fst fst = CompileFst(pattern, db.dict);
  for (uint64_t sigma : {1, 2, 4}) {
    DesqDfsOptions seq_options;
    seq_options.sigma = sigma;
    MiningResult expected =
        MineDesqDfs(db.sequences, fst, db.dict, seq_options);

    for (bool minimize : {false, true}) {
      for (bool aggregate : {false, true}) {
        DCandOptions options;
        options.sigma = sigma;
        options.minimize_nfas = minimize;
        options.aggregate_nfas = aggregate;
        options.num_map_workers = 2;
        options.num_reduce_workers = 2;
        DistributedResult actual =
            MineDCand(db.sequences, fst, db.dict, options);
        EXPECT_EQ(actual.patterns, expected)
            << "pattern=" << pattern << " sigma=" << sigma
            << " minimize=" << minimize << " aggregate=" << aggregate;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomizedDCand, DCandPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::ValuesIn(testing::PropertyPatterns())));

}  // namespace
}  // namespace dseq
