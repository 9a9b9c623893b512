#include "src/dict/dictionary.h"

#include <gtest/gtest.h>

#include <random>

#include "src/dict/sequence.h"

namespace dseq {
namespace {

TEST(DictionaryBuilderTest, AddAndLookup) {
  DictionaryBuilder builder;
  ItemId a = builder.AddItem("a");
  ItemId b = builder.AddItem("b");
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(builder.GetOrAddItem("a"), a);
  EXPECT_EQ(builder.GetOrAddItem("c"), 3u);
}

TEST(DictionaryBuilderTest, DuplicateNameThrows) {
  DictionaryBuilder builder;
  builder.AddItem("a");
  EXPECT_THROW(builder.AddItem("a"), std::invalid_argument);
}

TEST(DictionaryBuilderTest, SelfLoopThrows) {
  DictionaryBuilder builder;
  ItemId a = builder.AddItem("a");
  EXPECT_THROW(builder.AddParent(a, a), std::invalid_argument);
}

TEST(DictionaryBuilderTest, CycleDetected) {
  DictionaryBuilder builder;
  ItemId a = builder.AddItem("a");
  ItemId b = builder.AddItem("b");
  ItemId c = builder.AddItem("c");
  builder.AddParent(a, b);
  builder.AddParent(b, c);
  builder.AddParent(c, a);
  EXPECT_THROW(builder.Build(), std::invalid_argument);
}

TEST(DictionaryTest, AncestorsIncludeSelfAndAreSorted) {
  DictionaryBuilder builder;
  ItemId a1 = builder.AddItem("a1");
  ItemId a = builder.AddItem("A");
  ItemId root = builder.AddItem("ROOT");
  builder.AddParent(a1, a);
  builder.AddParent(a, root);
  Dictionary dict = builder.Build();

  EXPECT_EQ(dict.Ancestors(a1), (std::vector<ItemId>{a1, a, root}));
  EXPECT_EQ(dict.Ancestors(a), (std::vector<ItemId>{a, root}));
  EXPECT_EQ(dict.Ancestors(root), (std::vector<ItemId>{root}));
}

TEST(DictionaryTest, DagAncestorsDeduplicated) {
  // Diamond: x -> {p, q} -> root.
  DictionaryBuilder builder;
  ItemId x = builder.AddItem("x");
  ItemId p = builder.AddItem("p");
  ItemId q = builder.AddItem("q");
  ItemId root = builder.AddItem("root");
  builder.AddParent(x, p);
  builder.AddParent(x, q);
  builder.AddParent(p, root);
  builder.AddParent(q, root);
  Dictionary dict = builder.Build();

  EXPECT_EQ(dict.Ancestors(x), (std::vector<ItemId>{x, p, q, root}));
  EXPECT_TRUE(dict.IsAncestorOrSelf(root, x));
  EXPECT_TRUE(dict.IsAncestorOrSelf(x, x));
  EXPECT_FALSE(dict.IsAncestorOrSelf(x, p));
}

TEST(DictionaryTest, DocFrequenciesCountAncestorsOncePerSequence) {
  DictionaryBuilder builder;
  ItemId a1 = builder.AddItem("a1");
  ItemId a = builder.AddItem("A");
  builder.AddParent(a1, a);
  Dictionary dict = builder.Build();

  std::vector<Sequence> db = {{a1, a1}, {a1}, {a}};
  dict.ComputeDocFrequencies(db);
  EXPECT_EQ(dict.DocFrequency(a1), 2u);  // sequences 0 and 1
  EXPECT_EQ(dict.DocFrequency(a), 3u);   // all three
}

TEST(DictionaryTest, ParallelFrequenciesMatchSerial) {
  DictionaryBuilder builder;
  std::vector<ItemId> items;
  for (int i = 0; i < 20; ++i) {
    items.push_back(builder.AddItem("w" + std::to_string(i)));
  }
  for (int i = 1; i < 20; ++i) builder.AddParent(items[i], items[i / 2]);
  Dictionary dict = builder.Build();
  std::vector<Sequence> db;
  std::mt19937_64 rng(5);
  for (int s = 0; s < 500; ++s) {
    Sequence seq;
    for (int j = 0; j < 10; ++j) seq.push_back(items[rng() % 20]);
    db.push_back(seq);
  }
  Dictionary serial = dict;
  Dictionary parallel = dict;
  serial.ComputeDocFrequencies(db, 1);
  parallel.ComputeDocFrequencies(db, 4);
  for (ItemId w = 1; w <= dict.size(); ++w) {
    EXPECT_EQ(serial.DocFrequency(w), parallel.DocFrequency(w));
  }
}

TEST(DictionaryTest, RecodeOrdersByDescendingFrequency) {
  SequenceDatabase db = MakeRunningExample();
  const Dictionary& dict = db.dict;
  // Paper Fig. 2c: f(b)=5, f(A)=4, f(d)=3, f(a1)=3, f(c)=2, f(e)=1, f(a2)=1.
  EXPECT_EQ(dict.ItemByName("b"), 1u);
  EXPECT_EQ(dict.ItemByName("A"), 2u);
  EXPECT_EQ(dict.ItemByName("d"), 3u);
  EXPECT_EQ(dict.ItemByName("a1"), 4u);
  EXPECT_EQ(dict.ItemByName("c"), 5u);
  EXPECT_EQ(dict.ItemByName("e"), 6u);
  EXPECT_EQ(dict.ItemByName("a2"), 7u);

  EXPECT_EQ(dict.DocFrequency(dict.ItemByName("b")), 5u);
  EXPECT_EQ(dict.DocFrequency(dict.ItemByName("A")), 4u);
  EXPECT_EQ(dict.DocFrequency(dict.ItemByName("a1")), 3u);
  EXPECT_EQ(dict.DocFrequency(dict.ItemByName("a2")), 1u);
}

TEST(DictionaryTest, RecodePreservesHierarchy) {
  SequenceDatabase db = MakeRunningExample();
  const Dictionary& dict = db.dict;
  ItemId a1 = dict.ItemByName("a1");
  ItemId a2 = dict.ItemByName("a2");
  ItemId a = dict.ItemByName("A");
  EXPECT_TRUE(dict.IsAncestorOrSelf(a, a1));
  EXPECT_TRUE(dict.IsAncestorOrSelf(a, a2));
  EXPECT_FALSE(dict.IsAncestorOrSelf(a1, a2));
  EXPECT_EQ(dict.Ancestors(a1), (std::vector<ItemId>{a, a1}));
}

TEST(DictionaryTest, RecodeRewritesSequences) {
  SequenceDatabase db = MakeRunningExample();
  // T1 = a1 c d c b.
  EXPECT_EQ(db.FormatSequence(db.sequences[0]), "a1 c d c b");
  EXPECT_EQ(db.FormatSequence(db.sequences[1]), "e e a1 e a1 e b");
}

TEST(DictionaryTest, ForestDetection) {
  SequenceDatabase db = MakeRunningExample();
  EXPECT_TRUE(db.dict.IsForest());

  DictionaryBuilder builder;
  ItemId x = builder.AddItem("x");
  ItemId p = builder.AddItem("p");
  ItemId q = builder.AddItem("q");
  builder.AddParent(x, p);
  builder.AddParent(x, q);
  EXPECT_FALSE(builder.Build().IsForest());
}

TEST(DictionaryTest, HierarchyStats) {
  SequenceDatabase db = MakeRunningExample();
  EXPECT_EQ(db.dict.MaxAncestors(), 1u);  // a1 -> A
  EXPECT_NEAR(db.dict.MeanAncestors(), 2.0 / 7.0, 1e-9);
}

TEST(SequenceDatabaseTest, Stats) {
  SequenceDatabase db = MakeRunningExample();
  EXPECT_EQ(db.size(), 5u);
  EXPECT_EQ(db.TotalItems(), 22u);
  EXPECT_EQ(db.MaxSequenceLength(), 7u);
  EXPECT_NEAR(db.MeanSequenceLength(), 22.0 / 5.0, 1e-9);
}

TEST(SequenceDatabaseTest, ParseSequence) {
  SequenceDatabase db = MakeRunningExample();
  Sequence t5 = db.ParseSequence("a1 a1 b");
  EXPECT_EQ(t5, db.sequences[4]);
  EXPECT_THROW(db.ParseSequence("a1 nosuch"), std::invalid_argument);
}

}  // namespace
}  // namespace dseq
