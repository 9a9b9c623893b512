#include "src/nfa/output_nfa.h"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>
#include <string>

#include "src/core/candidates.h"
#include "src/core/desq_dfs.h"
#include "src/core/mining.h"
#include "src/core/pivot.h"
#include "src/dict/sequence.h"
#include "src/fst/compiler.h"
#include "src/nfa/serializer.h"
#include "tests/test_util.h"

namespace dseq {
namespace {

constexpr char kPatternEx[] = ".*(A)[(.^).*]*(b).*";

// Builds the per-pivot NFA trie for one sequence the paper's way, as the
// D-CAND map did before PivotNfaBuilder: every accepting run of pivot k goes
// into the trie. The reference of the PivotNfaBuilder differential test.
OutputNfa BuildTrie(const SequenceDatabase& db, const Fst& fst,
                    const Sequence& T, ItemId pivot, uint64_t sigma) {
  GridOptions options;
  options.prune_sigma = sigma;
  StateGrid grid = StateGrid::Build(T, fst, db.dict, options);
  OutputNfa trie;
  ForEachAcceptingRun(grid, 1'000'000,
                      [&](const std::vector<const StateGrid::Edge*>& run) {
                        std::vector<Sequence> sets;
                        for (const auto* e : run) sets.push_back(e->out);
                        PivotSet pivots = PivotsOfOutputSets(sets);
                        if (std::binary_search(pivots.items.begin(),
                                               pivots.items.end(), pivot)) {
                          trie.AddRun(run, pivot);
                        }
                      });
  return trie;
}

// ρk(T) via candidate enumeration (oracle).
std::vector<Sequence> PivotCandidates(const SequenceDatabase& db,
                                      const Fst& fst, const Sequence& T,
                                      ItemId pivot, uint64_t sigma) {
  GridOptions options;
  options.prune_sigma = sigma;
  StateGrid grid = StateGrid::Build(T, fst, db.dict, options);
  std::vector<Sequence> all;
  EnumerateCandidates(grid, 1'000'000, &all);
  std::vector<Sequence> result;
  for (const Sequence& s : all) {
    if (PivotItem(s) == pivot) result.push_back(s);
  }
  return result;
}

TEST(OutputNfaTest, EmptyNfa) {
  OutputNfa nfa;
  EXPECT_TRUE(nfa.empty());
  EXPECT_EQ(nfa.num_states(), 1u);
  EXPECT_EQ(nfa.num_edges(), 0u);
}

// Paper Fig. 7: NFAs for ρc(T1). The trie has 13 vertices and 12 edges; the
// minimized NFA has 7 vertices and 10 edges.
TEST(OutputNfaTest, PaperFig7TrieShape) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  ItemId c = db.dict.ItemByName("c");
  OutputNfa trie = BuildTrie(db, fst, db.sequences[0], c, 2);
  EXPECT_EQ(trie.num_states(), 13u);
  EXPECT_EQ(trie.num_edges(), 12u);
}

TEST(OutputNfaTest, PaperFig7MinimizedShape) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  ItemId c = db.dict.ItemByName("c");
  OutputNfa trie = BuildTrie(db, fst, db.sequences[0], c, 2);
  std::vector<Sequence> before;
  ASSERT_TRUE(trie.Language(1000, &before));
  trie.Minimize();
  EXPECT_EQ(trie.num_states(), 7u);
  EXPECT_EQ(trie.num_edges(), 10u);
  std::vector<Sequence> after;
  ASSERT_TRUE(trie.Language(1000, &after));
  EXPECT_EQ(before, after);
}

TEST(OutputNfaTest, LanguageEqualsPivotCandidates) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  for (size_t i = 0; i < db.sequences.size(); ++i) {
    for (ItemId k = 1; k <= db.dict.size(); ++k) {
      OutputNfa trie = BuildTrie(db, fst, db.sequences[i], k, 2);
      std::vector<Sequence> language;
      ASSERT_TRUE(trie.Language(100000, &language));
      EXPECT_EQ(language, PivotCandidates(db, fst, db.sequences[i], k, 2))
          << "T" << (i + 1) << " pivot " << db.dict.Name(k);
    }
  }
}

TEST(OutputNfaTest, MinimizeIsIdempotent) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  ItemId c = db.dict.ItemByName("c");
  OutputNfa trie = BuildTrie(db, fst, db.sequences[0], c, 2);
  trie.Minimize();
  size_t states = trie.num_states();
  size_t edges = trie.num_edges();
  trie.Minimize();
  EXPECT_EQ(trie.num_states(), states);
  EXPECT_EQ(trie.num_edges(), edges);
}

TEST(OutputNfaTest, InsertionOrderInvariance) {
  // Equal run sets inserted in different orders minimize to identical
  // serializations (required for shuffle aggregation).
  std::vector<std::vector<Sequence>> runs = {
      {{1}, {2, 3}, {4}},
      {{1}, {2}, {4}},
      {{1}, {5}},
  };
  OutputNfa forward;
  for (const auto& r : runs) forward.AddLabelString(r);
  OutputNfa backward;
  for (auto it = runs.rbegin(); it != runs.rend(); ++it) {
    backward.AddLabelString(*it);
  }
  forward.Minimize();
  backward.Minimize();
  EXPECT_EQ(SerializeNfa(forward), SerializeNfa(backward));
}

// The subset construction without the builder's machinery: breadth-first
// over sets of (coordinate << 1 | seen-k) codes, each the live ε-closure
// of the codes reached on one label string. Returns the number of distinct
// subsets, the root included, or 0 if k ∉ K(T).
size_t ReferenceSubsetCount(const StateGrid& grid, ItemId pivot) {
  if (!grid.HasAcceptingRun()) return 0;
  const uint32_t ns = static_cast<uint32_t>(grid.num_states());
  const uint32_t last_layer = static_cast<uint32_t>(grid.length()) * ns;
  std::vector<uint8_t> live = testing::ReferencePivotLiveness(grid, pivot);
  const uint32_t start = grid.initial_state();
  if ((live[start] & kLiveUnseen) == 0) return 0;
  auto is_live = [&](uint32_t code) {
    return (live[code >> 1] & ((code & 1) ? kLiveSeen : kLiveUnseen)) != 0;
  };
  auto closure = [&](std::set<uint32_t> codes) {
    std::vector<uint32_t> todo(codes.begin(), codes.end());
    while (!todo.empty()) {
      uint32_t code = todo.back();
      todo.pop_back();
      uint32_t coord = code >> 1;
      if (coord >= last_layer) continue;
      for (const StateGrid::Edge& e : grid.EdgesAt(coord / ns)) {
        if (e.from != coord % ns || !e.out.empty()) continue;
        uint32_t next = ((coord / ns + 1) * ns + e.to) << 1 | (code & 1);
        if (is_live(next) && codes.insert(next).second) todo.push_back(next);
      }
    }
    return codes;
  };
  std::set<std::set<uint32_t>> seen;
  std::vector<std::set<uint32_t>> queue = {closure({start << 1})};
  seen.insert(queue[0]);
  for (size_t next = 0; next < queue.size(); ++next) {
    std::map<Sequence, std::set<uint32_t>> moves;
    for (uint32_t code : queue[next]) {
      uint32_t coord = code >> 1;
      if (coord >= last_layer) continue;
      for (const StateGrid::Edge& e : grid.EdgesAt(coord / ns)) {
        PivotEdge test = TestPivotEdge(e.out, pivot);
        if (e.from != coord % ns || test.kind != PivotEdge::kAdmissible) {
          continue;
        }
        uint32_t to = ((coord / ns + 1) * ns + e.to) << 1 |
                      (code & 1) | (test.carries_pivot ? 1 : 0);
        if (!is_live(to)) continue;
        moves[Sequence(e.out.begin(), e.out.begin() + test.label_size)]
            .insert(to);
      }
    }
    for (auto& [label, targets] : moves) {
      std::set<uint32_t> subset = closure(std::move(targets));
      if (seen.insert(subset).second) queue.push_back(std::move(subset));
    }
  }
  return queue.size();
}

// Paper Fig. 7: the one pass yields the minimized NFA (7 vertices, 10
// edges) directly, and unfolds into the trie (13 vertices, 12 edges).
TEST(PivotNfaBuilderTest, PaperFig7Shapes) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  GridOptions options;
  options.prune_sigma = 2;
  StateGrid grid = StateGrid::Build(db.sequences[0], fst, db.dict, options);
  ItemId c = db.dict.ItemByName("c");
  PivotNfaBuilder builder(grid);
  ASSERT_TRUE(builder.Build(c));
  EXPECT_EQ(builder.num_states(), 7u);
  EXPECT_EQ(builder.num_edges(), 10u);
  EXPECT_LE(builder.states_created(), 13u);
  EXPECT_EQ(builder.states_created(), ReferenceSubsetCount(grid, c));
  for (StateId q = 0; q < builder.num_states(); ++q) {
    EXPECT_TRUE(builder.IsFinal(q) || !builder.EdgesOf(q).empty())
        << "state " << q;
    // Registered bottom-up: successors have smaller ids.
    for (const OutputNfa::Edge& e : builder.EdgesOf(q)) EXPECT_LT(e.target, q);
  }
  EXPECT_EQ(builder.root(), builder.num_states() - 1);
  EXPECT_FALSE(builder.IsFinal(builder.root()));

  OutputNfa reference = BuildTrie(db, fst, db.sequences[0], c, 2);
  reference.Minimize();
  std::string bytes;
  builder.SerializeTo(&bytes);
  EXPECT_EQ(bytes, SerializeNfa(reference));

  OutputNfa trie;
  ASSERT_TRUE(builder.Unfold(&trie));
  EXPECT_EQ(trie.num_states(), 13u);
  EXPECT_EQ(trie.num_edges(), 12u);
}

TEST(PivotNfaBuilderTest, EmptyForNonPivots) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  StateGrid grid = StateGrid::Build(db.sequences[1], fst, db.dict, {});
  PivotNfaBuilder builder(grid);
  ASSERT_TRUE(builder.Build(db.dict.ItemByName("c")));  // c ∉ K(T2)
  EXPECT_TRUE(builder.empty());
  EXPECT_EQ(builder.num_states(), 1u);
  std::string bytes;
  builder.SerializeTo(&bytes);
  EXPECT_EQ(bytes, SerializeNfa(OutputNfa()));
}

// The budget counts the subsets of the one pass and the trie states of
// Unfold: one short fails, the exact budget passes.
TEST(PivotNfaBuilderTest, StateBudgetCoversBuildAndUnfold) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  GridOptions options;
  options.prune_sigma = 2;
  StateGrid grid = StateGrid::Build(db.sequences[0], fst, db.dict, options);
  ItemId c = db.dict.ItemByName("c");
  PivotNfaBuilder unlimited(grid);
  ASSERT_TRUE(unlimited.Build(c));
  const uint64_t subsets = unlimited.states_created();

  PivotNfaBuilder tight(grid, subsets - 1);
  EXPECT_FALSE(tight.Build(c));
  PivotNfaBuilder exact_build(grid, subsets);
  EXPECT_TRUE(exact_build.Build(c));

  // Unfolding creates the 12 non-root trie states on top of the subsets.
  PivotNfaBuilder exact(grid, subsets + 12);
  ASSERT_TRUE(exact.Build(c));
  OutputNfa unfolded;
  EXPECT_TRUE(exact.Unfold(&unfolded));
  PivotNfaBuilder over(grid, subsets + 11);
  ASSERT_TRUE(over.Build(c));
  OutputNfa short_of_one;
  EXPECT_FALSE(over.Unfold(&short_of_one));
}

// Differential: the one-pass minimal DFA against the run trie (BuildTrie),
// per sequence and pivot. Its bytes must equal the minimized trie's, its
// unfolding the trie (as shipped, and canonicalized), and it may create no
// more subsets than the trie has states, exactly as many as the reference
// subset construction.
class PivotNfaBuilderPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, std::string>> {};

TEST_P(PivotNfaBuilderPropertyTest, MatchesRunTries) {
  auto [seed, pattern] = GetParam();
  SequenceDatabase db = testing::RandomDatabase(seed + 900, 8, 40, 8);
  Fst fst = CompileFst(pattern, db.dict);
  for (uint64_t sigma : {1, 2, 4}) {
    GridOptions options;
    options.prune_sigma = sigma;
    for (size_t t = 0; t < db.sequences.size(); ++t) {
      SCOPED_TRACE("pattern=" + pattern + " sigma=" + std::to_string(sigma) +
                   " sequence=" + std::to_string(t));
      StateGrid grid =
          StateGrid::Build(db.sequences[t], fst, db.dict, options);
      PivotNfaBuilder builder(grid);
      for (ItemId k : FindPivotItems(grid)) {
        OutputNfa reference = BuildTrie(db, fst, db.sequences[t], k, sigma);
        const uint64_t created = builder.states_created();
        ASSERT_TRUE(builder.Build(k));
        const uint64_t subsets = builder.states_created() - created;
        EXPECT_LE(subsets, reference.num_states());
        EXPECT_EQ(subsets, ReferenceSubsetCount(grid, k));

        OutputNfa trie;
        ASSERT_TRUE(builder.Unfold(&trie));
        OutputNfa reference_trie = reference;
        reference_trie.Canonicalize();
        EXPECT_EQ(SerializeNfa(trie), SerializeNfa(reference_trie));
        trie.Canonicalize();
        EXPECT_EQ(SerializeNfa(trie), SerializeNfa(reference_trie));

        reference.Minimize();
        EXPECT_EQ(builder.num_states(), reference.num_states());
        EXPECT_LE(builder.num_states(), subsets);
        std::string bytes;
        builder.SerializeTo(&bytes);
        EXPECT_EQ(bytes, SerializeNfa(reference));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomizedNfas, PivotNfaBuilderPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::ValuesIn(testing::PropertyPatterns())));

TEST(SerializerTest, PaperFig8Example) {
  // NFA for ρa1(T5): root -{a1}-> s1; s1 -{a1,A}-> s2 -{b}-> s3(final);
  // s1 -{b}-> s3. The paper serializes 4 transitions.
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  ItemId a1 = db.dict.ItemByName("a1");
  OutputNfa trie = BuildTrie(db, fst, db.sequences[4], a1, 2);
  trie.Minimize();
  EXPECT_EQ(trie.num_states(), 4u);
  EXPECT_EQ(trie.num_edges(), 4u);

  std::string bytes = SerializeNfa(trie);
  OutputNfa parsed = DeserializeNfa(bytes);
  std::vector<Sequence> expected_lang;
  ASSERT_TRUE(trie.Language(1000, &expected_lang));
  std::vector<Sequence> parsed_lang;
  ASSERT_TRUE(parsed.Language(1000, &parsed_lang));
  EXPECT_EQ(parsed_lang, expected_lang);
  EXPECT_EQ(expected_lang.size(), 3u);  // a1a1b, a1Ab, a1b
}

TEST(SerializerTest, RoundTripPreservesLanguageAndShape) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  for (size_t i = 0; i < db.sequences.size(); ++i) {
    for (ItemId k = 1; k <= db.dict.size(); ++k) {
      OutputNfa trie = BuildTrie(db, fst, db.sequences[i], k, 2);
      if (trie.empty()) continue;
      trie.Minimize();
      std::string bytes = SerializeNfa(trie);
      OutputNfa parsed = DeserializeNfa(bytes);
      EXPECT_EQ(parsed.num_states(), trie.num_states());
      EXPECT_EQ(parsed.num_edges(), trie.num_edges());
      std::vector<Sequence> a;
      std::vector<Sequence> b;
      ASSERT_TRUE(trie.Language(100000, &a));
      ASSERT_TRUE(parsed.Language(100000, &b));
      EXPECT_EQ(a, b);
      // Canonical re-serialization is stable.
      parsed.Minimize();
      EXPECT_EQ(SerializeNfa(parsed), bytes);
    }
  }
}

TEST(SerializerTest, RandomTriesRoundTrip) {
  std::mt19937_64 rng(99);
  for (int trial = 0; trial < 100; ++trial) {
    OutputNfa trie;
    size_t num_runs = 1 + rng() % 8;
    for (size_t r = 0; r < num_runs; ++r) {
      std::vector<Sequence> label_string;
      size_t len = 1 + rng() % 5;
      for (size_t i = 0; i < len; ++i) {
        Sequence label;
        size_t ls = 1 + rng() % 3;
        for (size_t j = 0; j < ls; ++j) {
          label.push_back(static_cast<ItemId>(rng() % 20 + 1));
        }
        std::sort(label.begin(), label.end());
        label.erase(std::unique(label.begin(), label.end()), label.end());
        label_string.push_back(std::move(label));
      }
      trie.AddLabelString(label_string);
    }
    std::vector<Sequence> before;
    ASSERT_TRUE(trie.Language(1'000'000, &before));
    if (rng() % 2 == 0) {
      trie.Minimize();
    } else {
      trie.Canonicalize();
    }
    std::string bytes = SerializeNfa(trie);
    OutputNfa parsed = DeserializeNfa(bytes);
    std::vector<Sequence> after;
    ASSERT_TRUE(parsed.Language(1'000'000, &after));
    EXPECT_EQ(before, after) << "trial " << trial;
  }
}

// D-CAND's reduce decode of one record's NFA bytes: into a DfsInput for
// `pivot`, and the NFA must end the record.
void AddNfaRecord(std::string_view bytes, ItemId pivot = kNoItem) {
  DfsInput input(pivot);
  size_t pos = 0;
  input.AddNfa(bytes, &pos, /*weight=*/1);
  if (pos != bytes.size()) throw NfaParseError("trailing bytes after NFA");
}

TEST(SerializerTest, MalformedInputThrows) {
  EXPECT_THROW(DeserializeNfa("\xff\xff\xff"), NfaParseError);
  EXPECT_THROW(AddNfaRecord("\xff\xff\xff"), NfaParseError);
  OutputNfa trie;
  trie.AddLabelString({{1}, {2}});
  trie.Canonicalize();
  std::string bytes = SerializeNfa(trie);
  bytes.pop_back();
  EXPECT_THROW(DeserializeNfa(bytes), NfaParseError);
  EXPECT_THROW(AddNfaRecord(bytes), NfaParseError);
  bytes = SerializeNfa(trie) + "x";
  EXPECT_THROW(DeserializeNfa(bytes), NfaParseError);
  EXPECT_THROW(AddNfaRecord(bytes), NfaParseError);
}

TEST(SerializerTest, CyclicInputThrows) {
  // One edge {5} from the root back to the root: a self-loop.
  std::string_view self_loop("\x01\x02\x01\x05\x00", 5);
  EXPECT_THROW(DeserializeNfa(self_loop), NfaParseError);
  EXPECT_THROW(AddNfaRecord(self_loop), NfaParseError);
  // root -{1}-> s1, then s1 -{2}-> root: a two-state back edge.
  std::string_view back_edge("\x02\x00\x01\x01\x02\x01\x02\x00", 8);
  EXPECT_THROW(DeserializeNfa(back_edge), NfaParseError);
  EXPECT_THROW(AddNfaRecord(back_edge), NfaParseError);
  // The store cuts labels to the pivot, but checks the cycle first: with
  // pivot 1 the back edge {2} and the self-loop {5} would be dropped.
  EXPECT_THROW(AddNfaRecord(back_edge, /*pivot=*/1), NfaParseError);
  EXPECT_THROW(AddNfaRecord(self_loop, /*pivot=*/3), NfaParseError);
  // The same edge into a sibling subtree is a cross edge, not a cycle:
  // root -{1}-> s1 -{2}-> s2, root -{3}-> s2.
  std::string_view cross_edge(
      "\x03\x00\x01\x01\x04\x01\x02\x03\x00\x01\x03\x02", 12);
  OutputNfa parsed = DeserializeNfa(cross_edge);
  EXPECT_TRUE(parsed.IsAcyclic());
  EXPECT_EQ(parsed.num_states(), 3u);
  EXPECT_EQ(parsed.num_edges(), 3u);
  EXPECT_NO_THROW(AddNfaRecord(cross_edge));
}

TEST(SerializerTest, AnyStateNumberingRoundTrips) {
  // Parsed from explicit sources, the states are not numbered in DFS order:
  // root -{1}-> s1, root -{2}-> s2 (final), s1 -{3}-> s3 (final),
  // s3 -{4}-> s2. The DFS visits s3 before s2, so the serializer must
  // write them by visit order, not by id.
  std::string_view bytes(
      "\x04\x00\x01\x01\x05\x00\x01\x02\x05\x01\x01\x03\x02\x01\x04\x02",
      16);
  OutputNfa parsed = DeserializeNfa(bytes);
  std::vector<Sequence> before;
  ASSERT_TRUE(parsed.Language(1000, &before));
  EXPECT_EQ(before, (std::vector<Sequence>{{1, 3}, {1, 3, 4}, {2}}));
  std::vector<Sequence> after;
  ASSERT_TRUE(DeserializeNfa(SerializeNfa(parsed)).Language(1000, &after));
  EXPECT_EQ(after, before);
}

TEST(SerializerTest, MinimizationShrinksSerialization) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  ItemId c = db.dict.ItemByName("c");
  OutputNfa trie = BuildTrie(db, fst, db.sequences[0], c, 2);
  OutputNfa minimized = trie;
  trie.Canonicalize();
  minimized.Minimize();
  EXPECT_LT(SerializeNfa(minimized).size(), SerializeNfa(trie).size());
}

}  // namespace
}  // namespace dseq
