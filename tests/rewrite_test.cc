#include "src/dist/dseq_miner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/core/candidates.h"
#include "src/core/desq_dfs.h"
#include "src/core/pivot.h"
#include "src/datagen/text_corpus.h"
#include "src/dict/sequence.h"
#include "src/fst/compiler.h"
#include "tests/test_util.h"

namespace dseq {
namespace {

constexpr char kPatternEx[] = ".*(A)[(.^).*]*(b).*";

// For every coordinate (i,q), whether (length(), f∈F) is reachable using
// only ε-output edges; indexed i*num_states+q. PivotRewriter computes the
// same bits layer by layer from the top, only as far down as it needs them.
std::vector<uint8_t> EpsAcceptTable(const StateGrid& grid) {
  size_t n = grid.length();
  size_t ns = grid.num_states();
  std::vector<uint8_t> eps_accept((n + 1) * ns, 0);
  for (StateId q = 0; q < ns; ++q) {
    if (grid.Alive(n, q) && grid.IsFinalState(q)) eps_accept[n * ns + q] = 1;
  }
  for (size_t i = n; i-- > 0;) {
    for (const StateGrid::Edge& e : grid.EdgesAt(i)) {
      if (e.out.empty() && eps_accept[(i + 1) * ns + e.to]) {
        eps_accept[i * ns + e.from] = 1;
      }
    }
  }
  return eps_accept;
}

TEST(RewriteTest, EpsAcceptTable) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  StateGrid grid = StateGrid::Build(db.sequences[0], fst, db.dict, {});
  std::vector<uint8_t> eps = EpsAcceptTable(grid);
  size_t ns = grid.num_states();
  // Final coordinates are ε-accepting by definition.
  for (StateId q = 0; q < ns; ++q) {
    if (grid.Alive(grid.length(), q) && grid.IsFinalState(q)) {
      EXPECT_TRUE(eps[grid.length() * ns + q]);
    }
  }
  // The initial coordinate is not ε-accepting: producing a1...b requires
  // output.
  EXPECT_FALSE(eps[0 * ns + grid.initial_state()]);
}

// Reference rewriter for the differential tests: the original per-pivot
// edge scan, which recomputes every edge's through-set
// K(i, e.from) ⊕ out(e) ⊕ B(i+1, e.to) for every layer it inspects and
// every pivot it is asked about. PivotRewriter must agree with it byte for
// byte. It also counts which rule ended each trim, so the differential
// suite can prove it exercised every rule.
struct ReferenceRewriter {
  struct RuleCounts {
    size_t rewrites = 0;
    size_t lead_trims = 0;        // rewrites with lead > 0
    size_t trail_trims = 0;       // rewrites with cut < n
    size_t acceptance_stops = 0;  // trail stopped only by the cut check
    size_t idle_stops = 0;        // lead > 0 stopped where the initial
                                  // state has no ε self-loop
    size_t departure_stops = 0;   // lead > 0 stopped by a pivot-k edge
                                  // beside the initial ε self-loop
    size_t arrival_stops = 0;     // trail stopped by a pivot-k edge
  };

  const Sequence& T;
  const StateGrid& grid;
  std::vector<PivotSet> fwd = testing::ReferenceForwardPivots(grid);
  std::vector<PivotSet> bwd = testing::ReferenceBackwardPivots(grid);
  std::vector<uint8_t> eps_accept = EpsAcceptTable(grid);

  bool EdgeProducesPivot(size_t layer, const StateGrid::Edge& edge,
                         ItemId pivot) const {
    size_t ns = grid.num_states();
    PivotSet through = fwd[layer * ns + edge.from];
    if (through.IsEmpty()) return false;
    if (!edge.out.empty()) {
      through = PivotMerge(through, PivotSet::Items(edge.out));
    }
    through = PivotMerge(through, bwd[(layer + 1) * ns + edge.to]);
    return std::binary_search(through.items.begin(), through.items.end(),
                              pivot);
  }

  Sequence Rewrite(ItemId pivot, RuleCounts* counts) const {
    size_t n = grid.length();
    if (!grid.HasAcceptingRun() || n == 0) return T;
    size_t ns = grid.num_states();
    StateId initial = grid.initial_state();
    ++counts->rewrites;

    size_t lead = 0;
    for (; lead < n; ++lead) {
      bool has_initial_self_loop = false;
      bool produces = false;
      for (const StateGrid::Edge& e : grid.EdgesAt(lead)) {
        if (e.from == initial && e.to == initial && e.out.empty()) {
          has_initial_self_loop = true;
        } else if (EdgeProducesPivot(lead, e, pivot)) {
          produces = true;
        }
      }
      if (!has_initial_self_loop) {
        if (lead > 0) ++counts->idle_stops;
        break;
      }
      if (produces) {
        if (lead > 0) ++counts->departure_stops;
        break;
      }
    }

    size_t cut = n;
    while (cut > lead + 1) {
      size_t layer = cut - 1;
      bool safe = true;
      for (const StateGrid::Edge& e : grid.EdgesAt(layer)) {
        bool final_self_loop =
            e.from == e.to && e.out.empty() && grid.IsFinalState(e.from);
        if (!final_self_loop && EdgeProducesPivot(layer, e, pivot)) {
          safe = false;
          break;
        }
      }
      if (!safe) {
        ++counts->arrival_stops;
        break;
      }
      for (StateId q = 0; q < ns && safe; ++q) {
        if (!grid.IsFinalState(q) || !grid.ForwardActive(layer, q)) continue;
        if (!grid.Alive(layer, q) || !eps_accept[layer * ns + q]) {
          safe = false;
        }
      }
      if (!safe) {
        ++counts->acceptance_stops;
        break;
      }
      --cut;
    }

    if (lead > 0) ++counts->lead_trims;
    if (cut < n) ++counts->trail_trims;
    if (lead == 0 && cut == n) return T;
    return Sequence(T.begin() + lead, T.begin() + cut);
  }
};

// Asserts PivotRewriter agrees with the reference on `T` for every pivot,
// and that its pivots() equal FindPivotItems.
void ExpectRewritesMatchReference(const SequenceDatabase& db,
                                  const Sequence& T, const StateGrid& grid,
                                  ReferenceRewriter::RuleCounts* counts) {
  PivotRewriter rewriter(T, grid);
  ASSERT_EQ(rewriter.pivots(), FindPivotItems(grid))
      << "T=" << db.FormatSequence(T);
  ReferenceRewriter reference{T, grid};
  for (ItemId k : rewriter.pivots()) {
    EXPECT_EQ(rewriter.Rewrite(k), reference.Rewrite(k, counts))
        << "pivot=" << db.dict.Name(k) << " T=" << db.FormatSequence(T);
  }
}

TEST(RewriteDifferentialTest, RunningExampleMatchesPerPivotScan) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  ReferenceRewriter::RuleCounts counts;
  for (uint64_t sigma : {1, 2}) {
    SCOPED_TRACE("sigma=" + std::to_string(sigma));
    GridOptions options;
    options.prune_sigma = sigma;
    for (const Sequence& T : db.sequences) {
      StateGrid grid = StateGrid::Build(T, fst, db.dict, options);
      ExpectRewritesMatchReference(db, T, grid, &counts);
    }
  }
  EXPECT_GT(counts.lead_trims, 0u);  // ρa1(T2) drops T2's leading e's
}

// Random databases × every property pattern × σ ∈ {1, 2}. One test so the
// rule counts span the whole sweep: each trim rule must fire somewhere,
// otherwise agreement with the reference would prove nothing about it. The
// property patterns all end in an unanchored gap, which never trips the
// cut-layer acceptance check, so end-anchored patterns are added for it.
// Two more patterns compile to an FST whose initial state is final, so one
// ε self-loop is both the initial and a final idle loop.
TEST(RewriteDifferentialTest, RandomDatabasesMatchPerPivotScan) {
  const std::vector<std::string> initial_final = {
      ".*[(i0).*]*", "[.*(i0^)[.*(i1)]*]{0,1}"};
  std::vector<std::string> patterns = testing::PropertyPatterns();
  patterns.insert(patterns.end(), {".*(i0)", "[.*(i0).*]|[.*(i1)]",
                                   ".*(i0^)[.*(i1)]{0,1}"});
  patterns.insert(patterns.end(), initial_final.begin(), initial_final.end());
  ReferenceRewriter::RuleCounts counts;
  for (int seed : {1, 2, 3, 4}) {
    SequenceDatabase db = testing::RandomDatabase(seed + 800, 8, 40, 12);
    for (const std::string& pattern : patterns) {
      Fst fst = CompileFst(pattern, db.dict);
      if (std::find(initial_final.begin(), initial_final.end(), pattern) !=
          initial_final.end()) {
        ASSERT_TRUE(fst.IsFinal(fst.initial())) << pattern;
      }
      for (uint64_t sigma : {1, 2}) {
        SCOPED_TRACE("seed=" + std::to_string(seed) + " pattern=" + pattern +
                     " sigma=" + std::to_string(sigma));
        GridOptions options;
        options.prune_sigma = sigma;
        for (const Sequence& T : db.sequences) {
          StateGrid grid = StateGrid::Build(T, fst, db.dict, options);
          ExpectRewritesMatchReference(db, T, grid, &counts);
        }
      }
    }
  }
  EXPECT_GT(counts.rewrites, 1000u);
  EXPECT_GT(counts.lead_trims, 0u);
  EXPECT_GT(counts.trail_trims, 0u);
  EXPECT_GT(counts.acceptance_stops, 0u);
  EXPECT_GT(counts.idle_stops, 0u);
  EXPECT_GT(counts.departure_stops, 0u);
  EXPECT_GT(counts.arrival_stops, 0u);
}

// A small NYT'-style text corpus under the N5 pattern: its `.^` outputs
// give grids dozens to hundreds of distinct output items, so PivotRewriter's
// scans run on multi-word pivot sets; the random databases above have at
// most 12 items, one word.
TEST(RewriteDifferentialTest, TextCorpusUnderN5MatchesPerPivotScan) {
  TextCorpusOptions corpus;
  corpus.num_sentences = 150;
  corpus.lemmas_per_pos = 80;
  corpus.num_entities = 40;
  corpus.seed = 7;
  SequenceDatabase db = GenerateTextCorpus(corpus);
  Fst fst = CompileFst(".* ([.^. .]|[. .^.]|[. . .^]) .*", db.dict);
  ReferenceRewriter::RuleCounts counts;
  size_t multi_word = 0;
  PivotDp dp;
  for (uint64_t sigma : {1, 3}) {
    SCOPED_TRACE("sigma=" + std::to_string(sigma));
    const StepTable table(fst, db.dict, sigma);
    for (const Sequence& T : db.sequences) {
      StateGrid grid = StateGrid::Build(T, table);
      dp.Load(grid);
      if (dp.width() > 1) ++multi_word;
      ExpectRewritesMatchReference(db, T, grid, &counts);
    }
  }
  EXPECT_GT(multi_word, 0u);
  EXPECT_GT(counts.lead_trims, 0u);
  EXPECT_GT(counts.trail_trims, 0u);
}

TEST(RewriteTest, PaperExampleT2ForPivotA1) {
  // Paper Sec. V-B: for pivot a1, the two leading e's of T2 are irrelevant,
  // so ρa1(T2) = a1ea1eb.
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  GridOptions options;
  options.prune_sigma = 2;
  const Sequence& T2 = db.sequences[1];
  StateGrid grid = StateGrid::Build(T2, fst, db.dict, options);
  ASSERT_TRUE(grid.HasAcceptingRun());
  Sequence rewritten =
      PivotRewriter(T2, grid).Rewrite(db.dict.ItemByName("a1"));
  EXPECT_EQ(db.FormatSequence(rewritten), "a1 e a1 e b");
}

TEST(RewriteTest, NoTrimWhenEverythingRelevant) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  GridOptions options;
  options.prune_sigma = 2;
  const Sequence& T5 = db.sequences[4];  // a1 a1 b
  StateGrid grid = StateGrid::Build(T5, fst, db.dict, options);
  Sequence rewritten =
      PivotRewriter(T5, grid).Rewrite(db.dict.ItemByName("a1"));
  EXPECT_EQ(rewritten, T5);
}

TEST(RewriteTest, RewrittenNeverLongerThanInput) {
  SequenceDatabase db = testing::RandomDatabase(77, 8, 50, 10);
  Fst fst = CompileFst(".*(i0)[(.^).*]*(i1).*", db.dict);
  GridOptions options;
  options.prune_sigma = 2;
  for (const Sequence& T : db.sequences) {
    StateGrid grid = StateGrid::Build(T, fst, db.dict, options);
    if (!grid.HasAcceptingRun()) continue;
    PivotRewriter rewriter(T, grid);
    for (ItemId k : FindPivotItems(grid)) {
      Sequence rewritten = rewriter.Rewrite(k);
      EXPECT_LE(rewritten.size(), T.size());
      EXPECT_FALSE(rewritten.empty());
    }
  }
}

// Core soundness property (paper Sec. V-B): for every pivot k of T, mining
// ρk(T) restricted to pivot k produces exactly the pivot-k candidates of T.
class RewritePropertyTest
    : public ::testing::TestWithParam<std::tuple<int, std::string>> {};

TEST_P(RewritePropertyTest, RewritePreservesPivotCandidates) {
  auto [seed, pattern] = GetParam();
  SequenceDatabase db = testing::RandomDatabase(seed + 500, 8, 40, 9);
  Fst fst = CompileFst(pattern, db.dict);
  for (uint64_t sigma : {1, 2}) {
    GridOptions options;
    options.prune_sigma = sigma;
    for (const Sequence& T : db.sequences) {
      StateGrid grid = StateGrid::Build(T, fst, db.dict, options);
      if (!grid.HasAcceptingRun()) continue;

      std::vector<Sequence> candidates;
      ASSERT_TRUE(EnumerateCandidates(grid, 1'000'000, &candidates));

      PivotRewriter rewriter(T, grid);
      for (ItemId k : FindPivotItems(grid)) {
        // Expected: pivot-k candidates of the original sequence.
        std::vector<Sequence> expected;
        for (const Sequence& s : candidates) {
          if (PivotItem(s) == k) expected.push_back(s);
        }
        std::sort(expected.begin(), expected.end());

        // Actual: pivot-k candidates of the rewritten sequence.
        Sequence rewritten = rewriter.Rewrite(k);
        StateGrid regrid = StateGrid::Build(rewritten, fst, db.dict, options);
        std::vector<Sequence> recand;
        ASSERT_TRUE(EnumerateCandidates(regrid, 1'000'000, &recand));
        std::vector<Sequence> actual;
        for (const Sequence& s : recand) {
          if (PivotItem(s) == k) actual.push_back(s);
        }
        std::sort(actual.begin(), actual.end());

        EXPECT_EQ(actual, expected)
            << "pattern=" << pattern << " sigma=" << sigma << " pivot=" << k
            << " T=" << db.FormatSequence(T)
            << " rewritten=" << db.FormatSequence(rewritten);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomizedRewrites, RewritePropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::ValuesIn(testing::PropertyPatterns())));

}  // namespace
}  // namespace dseq
