// Golden semantics tests for the paper's Tab. III constraints on a
// hand-built miniature corpus — pins down exactly which phrases each
// constraint extracts, independent of the synthetic generators.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/candidates.h"
#include "src/core/grid.h"
#include "src/dict/sequence.h"
#include "src/fst/compiler.h"

namespace dseq {
namespace {

// A miniature annotated corpus:
//   POS tags: VERB NOUN DET PREP ADJ ADV; entities: alice/acme -> PER/ORG
//   -> ENTITY; lemmas live/deal/be with inflections.
struct MiniCorpus {
  SequenceDatabase db;

  MiniCorpus() {
    DictionaryBuilder b;
    ItemId verb = b.AddItem("VERB");
    ItemId noun = b.AddItem("NOUN");
    ItemId det = b.AddItem("DET");
    ItemId prep = b.AddItem("PREP");
    ItemId adj = b.AddItem("ADJ");
    b.AddItem("ADV");
    ItemId entity = b.AddItem("ENTITY");
    ItemId per = b.AddItem("PER");
    ItemId org = b.AddItem("ORG");
    b.AddParent(per, entity);
    b.AddParent(org, entity);

    auto word = [&](const char* form, const char* lemma, ItemId pos) {
      ItemId l = b.GetOrAddItem(lemma);
      // Idempotent for repeated lemmas.
      if (b.GetOrAddItem(lemma) == l) b.AddParent(l, pos);
      ItemId f = b.GetOrAddItem(form);
      b.AddParent(f, l);
      return f;
    };
    lives = word("lives", "live", verb);
    lived = word("lived", "live", verb);
    makes = word("makes", "make", verb);
    deal_n = word("deal", "deal_lemma", noun);
    with = word("with", "with_lemma", prep);
    in = word("in", "in_lemma", prep);
    the = word("the", "the_lemma", det);
    a = word("a", "a_lemma", det);
    big = word("big", "big_lemma", adj);
    town = word("town", "town_lemma", noun);
    is = word("is", "be", verb);
    professor = word("professor", "professor_lemma", noun);

    alice = b.GetOrAddItem("alice");
    b.AddParent(alice, per);
    bob = b.GetOrAddItem("bob");
    b.AddParent(bob, per);
    acme = b.GetOrAddItem("acme");
    b.AddParent(acme, org);

    db.dict = b.Build();
    // "alice lives in acme", "bob makes a deal with acme",
    // "alice is a professor", "the big town".
    db.sequences = {
        {alice, lives, in, acme},
        {bob, makes, a, deal_n, with, acme},
        {alice, is, a, professor},
        {the, big, town},
    };
    db.Recode();
    Reresolve();
  }

  void Reresolve() {
    lives = db.dict.ItemByName("lives");
    alice = db.dict.ItemByName("alice");
  }

  std::vector<std::string> Candidates(const std::string& pattern,
                                      size_t seq_index) const {
    Fst fst = CompileFst(pattern, db.dict);
    StateGrid grid =
        StateGrid::Build(db.sequences[seq_index], fst, db.dict, {});
    std::vector<Sequence> out;
    EnumerateCandidates(grid, 100000, &out);
    std::vector<std::string> strings;
    for (const Sequence& s : out) strings.push_back(db.FormatSequence(s));
    std::sort(strings.begin(), strings.end());
    return strings;
  }

  ItemId lives, lived, makes, deal_n, with, in, the, a, big, town, is,
      professor, alice, bob, acme;
};

std::vector<std::string> Sorted(std::vector<std::string> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(ConstraintSemanticsTest, N1ExtractsRelationalPhrases) {
  MiniCorpus mini;
  const char* n1 = ".* ENTITY (VERB+ NOUN+? PREP?) ENTITY .*";
  // "alice lives in acme" -> "lives in" only: with PREP? unused, "in"
  // would remain unconsumed before the second ENTITY (context constraint!).
  EXPECT_EQ(mini.Candidates(n1, 0), Sorted({"lives in"}));
  // "bob makes a deal with acme": DET 'a' blocks VERB+ NOUN+? PREP? — no
  // match (N1 has no DET slot).
  EXPECT_TRUE(mini.Candidates(n1, 1).empty());
  // Copular sentence has no second entity after the verb phrase.
  EXPECT_TRUE(mini.Candidates(n1, 2).empty());
}

TEST(ConstraintSemanticsTest, N2ProducesTypedRelations) {
  MiniCorpus mini;
  const char* n2 = ".* (ENTITY^ VERB+ NOUN+? PREP? ENTITY^) .*";
  auto c = mini.Candidates(n2, 0);
  // Entities generalize up to ENTITY: alice/PER/ENTITY x acme/ORG/ENTITY.
  EXPECT_NE(std::find(c.begin(), c.end(), "PER lives in ORG"), c.end());
  EXPECT_NE(std::find(c.begin(), c.end(), "ENTITY lives in ENTITY"), c.end());
  EXPECT_NE(std::find(c.begin(), c.end(), "alice lives in acme"), c.end());
  EXPECT_EQ(c.size(), 3u * 3u);  // 3 generalizations per entity, verb+prep fixed
}

TEST(ConstraintSemanticsTest, N3ExtractsCopularRelations) {
  MiniCorpus mini;
  const char* n3 = ".* (ENTITY^ be^=) DET? (ADV? ADJ? NOUN) .*";
  auto c = mini.Candidates(n3, 2);
  // "alice is a professor": entity generalizations x forced 'be' x noun.
  EXPECT_EQ(c, Sorted({"alice be professor", "PER be professor",
                       "ENTITY be professor"}));
  // Non-copular sentences produce nothing.
  EXPECT_TRUE(mini.Candidates(n3, 0).empty());
  EXPECT_TRUE(mini.Candidates(n3, 3).empty());
}

TEST(ConstraintSemanticsTest, CopulaRequiresBeLemma) {
  MiniCorpus mini;
  // be^= matches only descendants of the lemma 'be' ("is"), not "lives".
  const char* pattern = ".* (be^=) .*";
  EXPECT_EQ(mini.Candidates(pattern, 2), Sorted({"be"}));
  EXPECT_TRUE(mini.Candidates(pattern, 0).empty());
}

TEST(ConstraintSemanticsTest, N4GeneralizedTrigramBeforeNoun) {
  MiniCorpus mini;
  const char* n4 = ".* (.^){3} NOUN .*";
  auto c = mini.Candidates(n4, 2);  // alice is a professor
  // Trigram "alice is a" with each token generalized independently
  // (3 entity levels x 3 verb levels x 3 det levels = 27 candidates).
  EXPECT_EQ(c.size(), 27u);
  EXPECT_NE(std::find(c.begin(), c.end(), "PER VERB DET"), c.end());
  EXPECT_NE(std::find(c.begin(), c.end(), "alice is a"), c.end());
}

TEST(ConstraintSemanticsTest, A1StyleGapConstraint) {
  MiniCorpus mini;
  // Two nouns with at most one item between them.
  const char* pattern = ".* (NOUN) [.{0,1}(NOUN)]{1,1} .*";
  auto c = mini.Candidates(pattern, 1);  // bob makes a deal with acme
  EXPECT_TRUE(c.empty());  // 'deal' is the only NOUN in range
  auto c2 = mini.Candidates(pattern, 2);  // alice is a professor: one noun
  EXPECT_TRUE(c2.empty());
}

}  // namespace
}  // namespace dseq
