#include "src/io/dataset_io.h"

#include <gtest/gtest.h>

#include <sstream>

#include "src/core/desq_dfs.h"
#include "src/fst/compiler.h"
#include "tests/test_util.h"

namespace dseq {
namespace {

constexpr char kSequences[] =
    "a1 c d c b\n"
    "e e a1 e a1 e b\n"
    "# a comment line\n"
    "c d c b\n"
    "a2 d b\n"
    "\n"
    "a1 a1 b\n";
constexpr char kHierarchy[] =
    "a1 A\n"
    "a2 A\n";

TEST(TextIoTest, ReadsRunningExample) {
  std::istringstream sequences(kSequences);
  std::istringstream hierarchy(kHierarchy);
  SequenceDatabase db = ReadTextDatabase(sequences, &hierarchy);
  EXPECT_EQ(db.size(), 5u);
  EXPECT_EQ(db.dict.size(), 7u);
  // Recoding puts b first (most frequent).
  EXPECT_EQ(db.dict.ItemByName("b"), 1u);
  EXPECT_TRUE(db.dict.IsAncestorOrSelf(db.dict.ItemByName("A"),
                                       db.dict.ItemByName("a1")));
  EXPECT_TRUE(db.dict.IsAncestorOrSelf(db.dict.ItemByName("A"),
                                       db.dict.ItemByName("a2")));
  // Every line read, comments and blank lines skipped, is the built-in
  // example's sequence in order.
  SequenceDatabase expected = MakeRunningExample();
  ASSERT_EQ(db.size(), expected.size());
  for (size_t i = 0; i < db.size(); ++i) {
    EXPECT_EQ(db.FormatSequence(db.sequences[i]),
              expected.FormatSequence(expected.sequences[i]));
  }
}

TEST(TextIoTest, MinedResultsMatchBuiltInExample) {
  std::istringstream sequences(kSequences);
  std::istringstream hierarchy(kHierarchy);
  SequenceDatabase db = ReadTextDatabase(sequences, &hierarchy);
  Fst fst = CompileFst(".*(A)[(.^).*]*(b).*", db.dict);
  DesqDfsOptions options;
  options.sigma = 2;
  MiningResult result = MineDesqDfs(db.sequences, fst, db.dict, options);
  ASSERT_EQ(result.size(), 3u);
}

TEST(TextIoTest, MalformedHierarchyThrows) {
  std::istringstream sequences("a b\n");
  std::istringstream hierarchy("childonly\n");
  EXPECT_THROW(ReadTextDatabase(sequences, &hierarchy), DatasetIoError);
}

TEST(TextIoTest, MissingFileThrows) {
  EXPECT_THROW(ReadTextDatabaseFromFiles("/nonexistent/path.txt", ""),
               DatasetIoError);
}

}  // namespace
}  // namespace dseq
