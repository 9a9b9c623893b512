#include "src/fst/compiler.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/candidates.h"
#include "src/core/grid.h"
#include "src/dict/sequence.h"

namespace dseq {
namespace {

constexpr char kPatternEx[] = ".*(A)[(.^).*]*(b).*";

// Enumerates Gπ(T) (or Gσπ(T) if sigma > 0) as readable strings.
std::vector<std::string> Candidates(const SequenceDatabase& db,
                                    const Fst& fst, const Sequence& T,
                                    uint64_t sigma = 0) {
  GridOptions options;
  options.prune_sigma = sigma;
  StateGrid grid = StateGrid::Build(T, fst, db.dict, options);
  std::vector<Sequence> candidates;
  EXPECT_TRUE(EnumerateCandidates(grid, 1'000'000, &candidates));
  std::vector<std::string> out;
  for (const Sequence& s : candidates) out.push_back(db.FormatSequence(s));
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> Sorted(std::vector<std::string> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(FstCompilerTest, UnknownItemThrows) {
  SequenceDatabase db = MakeRunningExample();
  EXPECT_THROW(CompileFst("(nosuchitem)", db.dict), FstCompileError);
}

TEST(FstCompilerTest, RunningExampleCompiles) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  EXPECT_GT(fst.num_states(), 0u);
  EXPECT_GT(fst.num_transitions(), 0u);
}

// Paper Fig. 3: candidate subsequences Gπex(T) for every input sequence.
TEST(FstGoldenTest, CandidatesOfT1) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  EXPECT_EQ(Candidates(db, fst, db.sequences[0]),
            Sorted({"a1 c d c b", "a1 c d b", "a1 c b", "a1 d c b",
                    "a1 c c b", "a1 d b", "a1 b"}));
}

TEST(FstGoldenTest, CandidatesOfT2) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  EXPECT_EQ(Candidates(db, fst, db.sequences[1]),
            Sorted({"a1 a1 b", "a1 A b", "a1 b", "a1 e b", "a1 e e b",
                    "a1 a1 e b", "a1 A e b", "a1 e a1 b", "a1 e A b",
                    "a1 e a1 e b", "a1 e A e b"}));
}

TEST(FstGoldenTest, CandidatesOfT3IsEmpty) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  GridOptions options;
  StateGrid grid = StateGrid::Build(db.sequences[2], fst, db.dict, options);
  EXPECT_FALSE(grid.HasAcceptingRun());
  EXPECT_TRUE(Candidates(db, fst, db.sequences[2]).empty());
}

TEST(FstGoldenTest, CandidatesOfT4) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  EXPECT_EQ(Candidates(db, fst, db.sequences[3]),
            Sorted({"a2 d b", "a2 b"}));
}

TEST(FstGoldenTest, CandidatesOfT5) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  EXPECT_EQ(Candidates(db, fst, db.sequences[4]),
            Sorted({"a1 a1 b", "a1 A b", "a1 b"}));
}

// Sec. II: "Aa1b ⋠πex T5, because pattern expression (A) does not allow to
// generalize matched items".
TEST(FstGoldenTest, CaptureWithoutGeneralizeDoesNotGeneralize) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  auto candidates = Candidates(db, fst, db.sequences[4]);
  EXPECT_EQ(std::count(candidates.begin(), candidates.end(), "A a1 b"), 0);
  EXPECT_EQ(std::count(candidates.begin(), candidates.end(), "A b"), 0);
}

// Sigma-pruned candidates Gσπ(T): e and a2 are infrequent at σ=2 (Fig. 3
// crosses those candidates out).
TEST(FstGoldenTest, SigmaPrunedCandidates) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  EXPECT_EQ(Candidates(db, fst, db.sequences[1], 2),
            Sorted({"a1 a1 b", "a1 A b", "a1 b"}));
  EXPECT_TRUE(Candidates(db, fst, db.sequences[3], 2).empty());
}

TEST(FstSemanticsTest, ExactMatchDoesNotMatchDescendants) {
  SequenceDatabase db = MakeRunningExample();
  // A= matches only the item A itself, not a1/a2.
  Fst fst = CompileFst("(A=).*", db.dict);
  GridOptions options;
  StateGrid grid = StateGrid::Build(db.sequences[0], fst, db.dict, options);
  EXPECT_FALSE(grid.HasAcceptingRun());  // T1 starts with a1, not A

  Sequence just_a = {db.dict.ItemByName("A")};
  StateGrid grid2 = StateGrid::Build(just_a, fst, db.dict, options);
  EXPECT_TRUE(grid2.HasAcceptingRun());
}

TEST(FstSemanticsTest, GeneralizeUpTo) {
  SequenceDatabase db = MakeRunningExample();
  // (A^) on input a1 outputs a1 and A (generalizations up to A).
  Fst fst = CompileFst("(A^).*", db.dict);
  EXPECT_EQ(Candidates(db, fst, db.sequences[0]), Sorted({"a1", "A"}));
}

TEST(FstSemanticsTest, ForcedGeneralization) {
  SequenceDatabase db = MakeRunningExample();
  // (A^=) on input a1 outputs A only.
  Fst fst = CompileFst("(A^=).*", db.dict);
  EXPECT_EQ(Candidates(db, fst, db.sequences[0]), Sorted({"A"}));
}

TEST(FstSemanticsTest, DotGeneralizeOutputsAllAncestors) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst("(.^).*", db.dict);
  // First item of T1 is a1: outputs a1 or A.
  EXPECT_EQ(Candidates(db, fst, db.sequences[0]), Sorted({"a1", "A"}));
}

TEST(FstSemanticsTest, UncapturedItemsProduceNoOutput) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst("a1 (c) .*", db.dict);
  EXPECT_EQ(Candidates(db, fst, db.sequences[0]), Sorted({"c"}));
}

TEST(FstSemanticsTest, AlternationProducesUnionOfCandidates) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst("[(a1)|(c)].*", db.dict);
  EXPECT_EQ(Candidates(db, fst, db.sequences[0]), Sorted({"a1"}));
  EXPECT_EQ(Candidates(db, fst, db.sequences[2]), Sorted({"c"}));
}

TEST(FstSemanticsTest, BoundedRepetition) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst("(.){2}.*", db.dict);
  EXPECT_EQ(Candidates(db, fst, db.sequences[4]), Sorted({"a1 a1"}));
  // {2} requires at least 2 items.
  Sequence one = {db.dict.ItemByName("b")};
  GridOptions options;
  StateGrid grid = StateGrid::Build(one, fst, db.dict, options);
  EXPECT_FALSE(grid.HasAcceptingRun());
}

TEST(FstSemanticsTest, AnchoredMatchConsumesWholeSequence) {
  SequenceDatabase db = MakeRunningExample();
  // Without trailing .*, the pattern must span the entire sequence.
  Fst fst = CompileFst("(a1)(a1)(b)", db.dict);
  EXPECT_EQ(Candidates(db, fst, db.sequences[4]), Sorted({"a1 a1 b"}));
  EXPECT_TRUE(Candidates(db, fst, db.sequences[0]).empty());
}

TEST(FstSemanticsTest, GapConstraintLimitsDistance) {
  SequenceDatabase db = MakeRunningExample();
  // (a1)[.{0,1}(b)]: a1 then b with at most one item between.
  Fst fst = CompileFst(".*(a1)[.{0,1}(b)].*", db.dict);
  // T5 = a1 a1 b: both a1's within distance. T1 = a1 c d c b: too far.
  EXPECT_EQ(Candidates(db, fst, db.sequences[4]), Sorted({"a1 b"}));
  EXPECT_TRUE(Candidates(db, fst, db.sequences[0]).empty());
}

TEST(FstSemanticsTest, EmptySequenceAcceptedOnlyByNullablePattern) {
  SequenceDatabase db = MakeRunningExample();
  GridOptions options;
  Fst star = CompileFst(".*", db.dict);
  StateGrid g1 = StateGrid::Build({}, star, db.dict, options);
  EXPECT_TRUE(g1.HasAcceptingRun());  // accepts, but no non-empty output

  Fst item = CompileFst("(a1)", db.dict);
  StateGrid g2 = StateGrid::Build({}, item, db.dict, options);
  EXPECT_FALSE(g2.HasAcceptingRun());
}

}  // namespace
}  // namespace dseq
