#include "src/core/grid.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "src/core/candidates.h"
#include "src/datagen/market_baskets.h"
#include "src/datagen/text_corpus.h"
#include "src/dict/sequence.h"
#include "src/fst/compiler.h"
#include "src/util/varint.h"
#include "tests/test_util.h"

namespace dseq {
namespace {

constexpr char kPatternEx[] = ".*(A)[(.^).*]*(b).*";

TEST(GridTest, EmptyForNonMatchingSequence) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  StateGrid grid = StateGrid::Build(db.sequences[2], fst, db.dict, {});
  EXPECT_FALSE(grid.HasAcceptingRun());
  EXPECT_EQ(grid.num_edges(), 0u);
}

TEST(GridTest, LayersMatchSequenceLength) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  StateGrid grid = StateGrid::Build(db.sequences[1], fst, db.dict, {});
  EXPECT_TRUE(grid.HasAcceptingRun());
  EXPECT_EQ(grid.length(), 7u);
}

TEST(GridTest, InitialStateAliveWhenAccepting) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  StateGrid grid = StateGrid::Build(db.sequences[0], fst, db.dict, {});
  EXPECT_TRUE(grid.Alive(0, grid.initial_state()));
}

TEST(GridTest, DeadEndsPruned) {
  SequenceDatabase db = MakeRunningExample();
  // Anchored pattern: on T1 = a1cdcb, taking (a1) at position 1 and then
  // failing later must not leave dead edges.
  Fst fst = CompileFst("(a1)(c)(d)(c)(b)", db.dict);
  StateGrid grid = StateGrid::Build(db.sequences[0], fst, db.dict, {});
  ASSERT_TRUE(grid.HasAcceptingRun());
  // Exactly one run: every layer has exactly one edge.
  for (size_t i = 0; i < grid.length(); ++i) {
    EXPECT_EQ(grid.EdgesAt(i).size(), 1u) << "layer " << i;
  }
}

TEST(GridTest, SigmaPruningDropsInfrequentOutputs) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  // At sigma=2, items e and a2 are infrequent. T4 = a2 d b only generates
  // candidates containing a2, so the pruned grid must reject.
  GridOptions options;
  options.prune_sigma = 2;
  StateGrid grid = StateGrid::Build(db.sequences[3], fst, db.dict, options);
  EXPECT_FALSE(grid.HasAcceptingRun());
}

TEST(GridTest, SigmaPruningKeepsEpsilonEdges) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  GridOptions options;
  options.prune_sigma = 2;
  // T2 contains infrequent e's, but they are consumed by ε-output dots.
  StateGrid grid = StateGrid::Build(db.sequences[1], fst, db.dict, options);
  EXPECT_TRUE(grid.HasAcceptingRun());
  std::vector<Sequence> candidates;
  EXPECT_TRUE(EnumerateCandidates(grid, 1000, &candidates));
  EXPECT_EQ(candidates.size(), 3u);  // a1a1b, a1Ab, a1b
}

TEST(GridTest, ForwardActiveSupersetOfAlive) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  StateGrid grid = StateGrid::Build(db.sequences[0], fst, db.dict, {});
  for (size_t i = 0; i <= grid.length(); ++i) {
    for (StateId q = 0; q < grid.num_states(); ++q) {
      if (grid.Alive(i, q)) EXPECT_TRUE(grid.ForwardActive(i, q));
    }
  }
}

TEST(GridTest, EmptySequence) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(".*", db.dict);
  StateGrid grid = StateGrid::Build({}, fst, db.dict, {});
  EXPECT_TRUE(grid.HasAcceptingRun());
  EXPECT_EQ(grid.length(), 0u);
}

TEST(GridTest, EdgesSortedByFromState) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  StateGrid grid = StateGrid::Build(db.sequences[1], fst, db.dict, {});
  for (size_t i = 0; i < grid.length(); ++i) {
    const auto& edges = grid.EdgesAt(i);
    for (size_t e = 1; e < edges.size(); ++e) {
      EXPECT_LE(edges[e - 1].from, edges[e].from);
    }
  }
}

TEST(GridTest, OutputSetsSortedAscending) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  StateGrid grid = StateGrid::Build(db.sequences[1], fst, db.dict, {});
  for (size_t i = 0; i < grid.length(); ++i) {
    for (const auto& edge : grid.EdgesAt(i)) {
      EXPECT_TRUE(std::is_sorted(edge.out.begin(), edge.out.end()));
    }
  }
}

// Edges as comparable (from, to, out) tuples.
template <typename Edges>
std::vector<std::tuple<StateId, StateId, Sequence>> Tuples(const Edges& edges) {
  std::vector<std::tuple<StateId, StateId, Sequence>> tuples;
  for (const StateGrid::Edge& e : edges) {
    tuples.emplace_back(e.from, e.to, e.out);
  }
  return tuples;
}

// The coordinate index against the per-layer construction: the ranges
// EdgesOf(c) tile edges() in coordinate order, each holds exactly the edges
// of its layer out of its state, and every layer equals the reference's.
// Alive and ForwardActive equal the reference's alive and reached flags on
// an accepting grid and are false everywhere on another; EpsAccept equals
// "reached, with an ε-only completion to a final end", rolled down the
// reference's layers.
TEST(GridTest, CoordinateIndexMatchesPerLayerConstruction) {
  size_t grids = 0;
  size_t pruned = 0;
  for (int seed : {1, 2, 3}) {
    SequenceDatabase db = testing::RandomDatabase(seed + 300, 8, 30, 10);
    for (const std::string& pattern : testing::PropertyPatterns()) {
      Fst fst = CompileFst(pattern, db.dict);
      for (uint64_t sigma : {1, 2, 4}) {
        SCOPED_TRACE("seed=" + std::to_string(seed) + " pattern=" + pattern +
                     " sigma=" + std::to_string(sigma));
        GridOptions options;
        options.prune_sigma = sigma;
        const StepTable table(fst, db.dict, sigma);
        for (const Sequence& T : db.sequences) {
          StateGrid grid = StateGrid::Build(T, table);
          const testing::ReferenceGrid reference =
              testing::ReferenceLayers(T, fst, db.dict, sigma, &pruned);
          // The per-sequence overload runs the same loop over T's items.
          StateGrid local = StateGrid::Build(T, fst, db.dict, options);
          EXPECT_EQ(Tuples(local.edges()), Tuples(grid.edges()));
          EXPECT_EQ(local.HasAcceptingRun(), grid.HasAcceptingRun());
          ASSERT_EQ(reference.layers.size(), grid.length());
          const size_t ns = grid.num_states();
          const Span<StateGrid::Edge> all = grid.edges();
          size_t next = 0;
          for (size_t i = 0; i <= grid.length(); ++i) {
            if (i < grid.length()) {
              EXPECT_EQ(Tuples(grid.EdgesAt(i)), Tuples(reference.layers[i]))
                  << "layer " << i;
            }
            for (StateId q = 0; q < ns; ++q) {
              const Span<StateGrid::Edge> of = grid.EdgesOf(i * ns + q);
              ASSERT_EQ(of.data(), all.data() + next)
                  << "(" << i << ", " << q << ")";
              if (!of.empty()) {
                EXPECT_EQ(grid.EdgeIndex(of[0]), next);
              }
              next += of.size();
              std::vector<StateGrid::Edge> expected;
              if (i < grid.length()) {
                for (const StateGrid::Edge& e : grid.EdgesAt(i)) {
                  if (e.from == q) expected.push_back(e);
                }
              }
              EXPECT_EQ(Tuples(of), Tuples(expected))
                  << "(" << i << ", " << q << ")";
            }
          }
          EXPECT_EQ(next, grid.num_edges());
          EXPECT_EQ(next, all.size());
          const size_t n = grid.length();
          std::vector<bool> eps_accept((n + 1) * ns, false);
          for (StateId q = 0; q < ns; ++q) {
            eps_accept[n * ns + q] = reference.alive[n * ns + q];
          }
          for (size_t i = n; i-- > 0;) {
            for (const StateGrid::Edge& e : reference.layers[i]) {
              if (e.out.empty() && eps_accept[(i + 1) * ns + e.to]) {
                eps_accept[i * ns + e.from] = true;
              }
            }
          }
          for (size_t i = 0; i <= n; ++i) {
            for (StateId q = 0; q < ns; ++q) {
              SCOPED_TRACE("(" + std::to_string(i) + ", " +
                           std::to_string(q) + ")");
              const size_t c = i * ns + q;
              EXPECT_EQ(grid.Alive(i, q), bool{reference.alive[c]});
              EXPECT_EQ(grid.ForwardActive(i, q),
                        grid.HasAcceptingRun() && reference.reached[c]);
              EXPECT_EQ(grid.EpsAccept(i, q), bool{eps_accept[c]});
              EXPECT_EQ(local.Alive(i, q), grid.Alive(i, q));
              EXPECT_EQ(local.ForwardActive(i, q), grid.ForwardActive(i, q));
              EXPECT_EQ(local.EpsAccept(i, q), grid.EpsAccept(i, q));
            }
          }
          EXPECT_EQ(grid.HasAcceptingRun(),
                    ns > 0 && reference.alive[grid.initial_state()]);
          if (grid.num_edges() > 0) ++grids;
        }
      }
    }
  }
  // Non-trivial grids, and accepting ones the pruning shrank.
  EXPECT_GT(grids, 100u);
  EXPECT_GT(pruned, 0u);
}

// --- StepTable --------------------------------------------------------------

// Checks every cell of the job's table for `pattern` against ReferenceStep:
// per state, the (to, step result) of each move equals that of each FST
// transition, for every item of the dictionary. Returns the cells checked.
size_t ExpectTableMatchesReference(const std::string& pattern,
                                   const Dictionary& dict, uint64_t sigma) {
  SCOPED_TRACE("pattern=" + pattern + " sigma=" + std::to_string(sigma));
  Fst fst = CompileFst(pattern, dict);
  const StepTable table(fst, dict, sigma);
  EXPECT_EQ(table.num_states(), fst.num_states());
  EXPECT_EQ(table.initial(), fst.initial());
  EXPECT_EQ(table.prune_sigma(), sigma);
  EXPECT_LE(table.num_classes(), fst.num_transitions());
  using Step = std::tuple<StateId, bool, Sequence>;
  size_t cells = 0;
  Sequence out;
  for (StateId q = 0; q < fst.num_states(); ++q) {
    EXPECT_EQ(table.IsFinal(q), fst.IsFinal(q));
    const Span<StepTable::Move> moves = table.MovesFrom(q);
    EXPECT_EQ(moves.size(), fst.From(q).size());
    for (ItemId w = 1; w <= dict.size(); ++w) {
      std::vector<Step> expected;
      for (const Transition& tr : fst.From(q)) {
        bool edge = testing::ReferenceStep(fst, tr, w, dict, sigma, &out);
        expected.emplace_back(tr.to, edge, edge ? out : Sequence{});
      }
      std::vector<Step> actual;
      for (const StepTable::Move& m : moves) {
        Span<ItemId> label(nullptr, 0);
        bool edge = table.Step(table.Column(w), m.cls, &label);
        actual.emplace_back(m.to, edge,
                            Sequence(label.begin(), edge ? label.end()
                                                         : label.begin()));
      }
      std::sort(expected.begin(), expected.end());
      std::sort(actual.begin(), actual.end());
      EXPECT_EQ(actual, expected) << "state " << q << " item " << w;
      cells += expected.size();
    }
  }
  return cells;
}

TEST(StepTableTest, CellsMatchReferenceOnPaperConstraints) {
  // Tab. III's N1–N5 on a small NYT', A1–A4 on a small AMZN', and the
  // traditional T1(3), T2(1, 4) and T3(1, 5) constraints.
  TextCorpusOptions nyt_options;
  nyt_options.num_sentences = 300;
  nyt_options.lemmas_per_pos = 40;
  nyt_options.num_entities = 30;
  SequenceDatabase nyt = GenerateTextCorpus(nyt_options);
  MarketBasketOptions amzn_options;
  amzn_options.num_customers = 200;
  SequenceDatabase amzn = GenerateMarketBaskets(amzn_options);
  const std::vector<std::string> nyt_patterns = {
      ".* ENTITY (VERB+ NOUN+? PREP?) ENTITY .*",
      ".* (ENTITY^ VERB+ NOUN+? PREP? ENTITY^) .*",
      ".* (ENTITY^ be^=) DET? (ADV? ADJ? NOUN) .*",
      ".* (.^){3} NOUN .*",
      ".* ([.^. .]|[. .^.]|[. . .^]) .*",
      ".*(.)[.*(.)]{0,2}.*",
      ".*(.)[.{0,1}(.)]{1,3}.*",
  };
  const std::vector<std::string> amzn_patterns = {
      ".*(Electr^)[.{0,2}(Electr^)]{1,4}.*",
      ".*(Book)[.{0,2}(Book)]{1,4}.*",
      ".*DigitalCamera[.{0,3}(.^)]{1,4}.*",
      ".*(MusicInstr^)[.{0,2}(MusicInstr^)]{1,4}.*",
      ".*(.^)[.{0,1}(.^)]{1,4}.*",
  };
  size_t cells = 0;
  for (uint64_t sigma : {0, 2, 20}) {
    for (const std::string& p : nyt_patterns) {
      cells += ExpectTableMatchesReference(p, nyt.dict, sigma);
    }
    for (const std::string& p : amzn_patterns) {
      cells += ExpectTableMatchesReference(p, amzn.dict, sigma);
    }
  }
  EXPECT_GT(cells, 100'000u);
}

// A random pattern over items i0..i5 of `.`, `^`, `^=` and `=` atoms,
// captured or not, with quantifiers and alternation.
std::string RandomPattern(std::mt19937_64& rng) {
  const std::vector<std::string> atoms = {
      ".",     "(.)",    "(.^)",   "i0",      "(i1)",    "(i2^)",
      "(i3=)", "i4=",    "(i0^=)", "(i5^)",   "(i1^=)",  "i2"};
  const std::vector<std::string> quantifiers = {"", "", "?", "*", "{0,2}",
                                                "{1,2}"};
  auto sequence = [&] {
    std::string s;
    for (size_t k = 0, n = 1 + rng() % 3; k < n; ++k) {
      s += atoms[rng() % atoms.size()] +
           quantifiers[rng() % quantifiers.size()] + " ";
    }
    return s;
  };
  std::string body = sequence();
  if (rng() % 3 == 0) body = "[" + body + "|" + sequence() + "]";
  return (rng() % 2 ? ".* " : "") + body + (rng() % 2 ? " .*" : "");
}

TEST(StepTableTest, CellsMatchReferenceOnRandomFsts) {
  size_t cells = 0;
  for (int seed : {1, 2, 3}) {
    SequenceDatabase db = testing::RandomDatabase(seed + 700, 12, 30, 8);
    std::mt19937_64 rng(seed);
    std::vector<std::string> patterns = testing::PropertyPatterns();
    for (int k = 0; k < 20; ++k) patterns.push_back(RandomPattern(rng));
    for (const std::string& pattern : patterns) {
      for (uint64_t sigma : {0, 1, 3, 8}) {
        cells += ExpectTableMatchesReference(pattern, db.dict, sigma);
      }
    }
  }
  EXPECT_GT(cells, 10'000u);
}

TEST(StepTableTest, RejectsItemsItDoesNotHold) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  const StepTable table(fst, db.dict, 0);
  const ItemId past = static_cast<ItemId>(db.dict.size() + 1);
  EXPECT_THROW(table.Column(kNoItem), std::invalid_argument);
  EXPECT_THROW(table.Column(past), std::invalid_argument);
  EXPECT_THROW(StateGrid::Build({1, past}, table), std::invalid_argument);
  EXPECT_THROW(StateGrid::Build({kNoItem}, fst, db.dict, {}),
               std::invalid_argument);
  // A table of some items holds only those.
  const StepTable partial(fst, db.dict, 0, {2, 3});
  EXPECT_EQ(partial.Column(3), 1u);
  EXPECT_THROW(partial.Column(1), std::invalid_argument);
}

TEST(CandidatesTest, BudgetRespected) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  StateGrid grid = StateGrid::Build(db.sequences[1], fst, db.dict, {});
  std::vector<Sequence> candidates;
  EXPECT_FALSE(EnumerateCandidates(grid, 3, &candidates));
}

// The key search against the reference DFS: every distinct candidate's
// PutSequence key exactly once, and the raw-count budget exact at its
// boundary (budget = raw passes; raw - 1 fails and emits nothing). Besides
// the property patterns, one whose ε tail after the last output has many
// accepting paths (`[. .|.]*`: every split of the tail into steps of one
// and two items is a run), which the search counts without walking them.
TEST(CandidatesTest, KeysMatchReferenceSearch) {
  std::vector<std::string> patterns = testing::PropertyPatterns();
  patterns.push_back(".*(.^)[. .|.]*");
  size_t grids = 0;
  size_t deduplicated = 0;
  size_t boundaries = 0;
  for (int seed : {1, 2, 3}) {
    SequenceDatabase db = testing::RandomDatabase(seed + 500, 8, 30, 8);
    for (const std::string& pattern : patterns) {
      Fst fst = CompileFst(pattern, db.dict);
      for (uint64_t sigma : {0, 1, 2, 4}) {
        SCOPED_TRACE("seed=" + std::to_string(seed) + " pattern=" + pattern +
                     " sigma=" + std::to_string(sigma));
        GridOptions options;
        options.prune_sigma = sigma;
        for (const Sequence& T : db.sequences) {
          StateGrid grid = StateGrid::Build(T, fst, db.dict, options);
          std::vector<Sequence> raw;
          ASSERT_TRUE(testing::ReferenceCandidates(grid, 1'000'000, &raw));
          std::vector<std::string> expected;
          for (const Sequence& c : raw) {
            std::string key;
            PutSequence(&key, c);
            expected.push_back(std::move(key));
          }
          std::sort(expected.begin(), expected.end());
          expected.erase(std::unique(expected.begin(), expected.end()),
                         expected.end());

          std::vector<std::string> keys;
          auto collect = [&keys](std::string_view key) {
            keys.emplace_back(key);
          };
          // Exactly `raw` candidates fit (0 is unlimited, so a grid with no
          // candidate passes either way).
          ASSERT_TRUE(ForEachCandidateKey(grid, raw.size(), collect));
          std::sort(keys.begin(), keys.end());
          EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end())
              << "a key was emitted twice";
          EXPECT_EQ(keys, expected);
          if (raw.empty()) continue;
          ++grids;
          if (raw.size() > expected.size()) ++deduplicated;

          // One raw candidate over the budget: false, and no key at all.
          if (raw.size() >= 2) {
            keys.clear();
            EXPECT_FALSE(ForEachCandidateKey(grid, raw.size() - 1, collect));
            EXPECT_TRUE(keys.empty());
            ++boundaries;
          }
          // 0 = unlimited.
          keys.clear();
          ASSERT_TRUE(ForEachCandidateKey(grid, 0, collect));
          EXPECT_EQ(keys.size(), expected.size());

          std::vector<Sequence> decoded;
          ASSERT_TRUE(EnumerateCandidates(grid, raw.size(), &decoded));
          std::sort(raw.begin(), raw.end());
          raw.erase(std::unique(raw.begin(), raw.end()), raw.end());
          EXPECT_EQ(decoded, raw);
        }
      }
    }
  }
  // Nothing above is vacuous: grids with candidates, sequences whose runs
  // repeat a candidate, and budget boundaries below the raw count.
  EXPECT_GT(grids, 100u);
  EXPECT_GT(deduplicated, 0u);
  EXPECT_GT(boundaries, 0u);
}

TEST(CandidatesTest, RunCounting) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  // T5 = a1 a1 b has exactly 3 accepting runs (paper Sec. IV).
  StateGrid grid = StateGrid::Build(db.sequences[4], fst, db.dict, {});
  uint64_t runs = 0;
  EXPECT_TRUE(ForEachAcceptingRun(
      grid, 1000, [&](const std::vector<const StateGrid::Edge*>&) { ++runs; }));
  EXPECT_EQ(runs, 3u);
}

TEST(CandidatesTest, RunEnumerationYieldsFullRuns) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  StateGrid grid = StateGrid::Build(db.sequences[4], fst, db.dict, {});
  ForEachAcceptingRun(grid, 1000,
                      [&](const std::vector<const StateGrid::Edge*>& run) {
                        EXPECT_EQ(run.size(), grid.length());
                      });
}

TEST(CandidatesTest, RunBudgetStopsEnumeration) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  StateGrid grid = StateGrid::Build(db.sequences[4], fst, db.dict, {});
  uint64_t seen = 0;
  bool complete = ForEachAcceptingRun(
      grid, 2, [&](const std::vector<const StateGrid::Edge*>&) { ++seen; });
  EXPECT_FALSE(complete);
  EXPECT_EQ(seen, 2u);
}

}  // namespace
}  // namespace dseq
